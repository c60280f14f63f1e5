// End-to-end benchmark driver for ANOR.  One process runs one workload,
// so peak RSS and the process-global telemetry registries belong to that
// workload alone.  perfbench/run.py builds this binary and runs it; see
// perfbench/README.md for the metric -> layer -> workload map.
//
//   anor_perfbench --workload {emu-dr|tab-wide|sweep-cache} --seed N
//                  --seconds S --trace {0|1} --work-dir DIR [--revision REV]
//
// Every call goes through the public front door: ScenarioSpec ->
// engine::run_scenario for the scenario workloads, an anor.sweep.v1 grid
// -> engine::sweep::run_sweep for the sweep.  With --trace 0 the span
// profiler is off while timing (one untimed warm-up run is traced to
// count engine ticks) and the end-to-end metrics are printed.  With
// --trace 1 the profiler and the metrics registry are read and the
// per-layer metrics are printed.  Either way every run or cell is checked
// (check_result and its callers), and the last stdout line is the result
// object.  The exit code is 1 when an output check failed, 2 on a usage
// error and 3 when the workload could not be measured at all.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "engine/runner.hpp"
#include "engine/sweep/executor.hpp"
#include "engine/sweep/result_cache.hpp"
#include "engine/sweep/spec_canon.hpp"
#include "engine/sweep/sweep.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/prof/prof.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "workload/job_type.hpp"
#include "workload/regulation.hpp"
#include "workload/schedule.hpp"

#ifndef ANOR_PERFBENCH_BUILD_TYPE
#define ANOR_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace anor;
namespace fs = std::filesystem;
namespace prof = telemetry::prof;
namespace sweep = engine::sweep;
using Clock = std::chrono::steady_clock;

// --- workload definitions ----------------------------------------------

constexpr int kEmuNodes = 1024;
constexpr double kEmuHorizonS = 600.0;
constexpr int kTabNodes = 100000;
constexpr double kTabHorizonS = 3600.0;
constexpr double kUtilization = 0.75;
constexpr int kSweepNodes = 2048;
constexpr double kSweepHorizonS = 900.0;
constexpr double kSweepUtilizations[] = {0.3, 0.5, 0.7, 0.9};
constexpr int kSweepSeeds = 4;
/// Specs drawn from the seed per scenario workload.  The control metrics
/// are means over them: one draw's worst per-type QoS quantile varies by a
/// factor of two between seeds.  tab-wide's jobs scale with the cluster,
/// so its control metrics do not depend on the node count; a quarter of
/// emu-dr's run time buys it four times the draws.
constexpr int kEmuInstances = 8;
constexpr int kTabInstances = 32;
/// Tracking statistics skip the window before the queue fills and
/// normalize the error by the bid's reserve, as `anorctl profile` does.
constexpr double kTrackingWarmupS = 300.0;
constexpr double kReservePerNodeW = 18.0;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Runs `fn` and returns its wall time in seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

/// The timing an end-to-end metric reports from a run's samples: their
/// lower quartile.  On a shared host, neighbours' load slows a varying
/// share of the samples, often half or more of a run's; the median then
/// swings with that load while the lower quartile holds.
double typical(const std::vector<double>& samples) { return quantile(samples, 0.25); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t h = 1469598103934665603ULL) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// The demand-response target every workload tracks: random-walk
/// regulation around a 150 W/node bid with an 18 W/node reserve (the
/// scale the sweep materializer uses for its "dr" signal).
util::TimeSeries dr_targets(int nodes, double horizon_s, std::uint64_t seed) {
  workload::DemandResponseBid bid;
  bid.average_power_w = 150.0 * nodes;
  bid.reserve_w = kReservePerNodeW * nodes;
  const workload::RandomWalkRegulation regulation(util::Rng(seed).child("regulation"),
                                                  horizon_s + 60.0, 4.0);
  return workload::make_power_target_series(bid, regulation, horizon_s, 4.0);
}

/// Poisson arrivals as the sweep materializer draws them.
workload::Schedule poisson_schedule(const std::vector<workload::JobType>& types, int nodes,
                                    double horizon_s, double utilization, std::uint64_t seed) {
  ANOR_PROF_SCOPE("bench.schedule_gen");
  workload::PoissonScheduleConfig config;
  config.duration_s = horizon_s;
  config.utilization = utilization;
  config.cluster_nodes = nodes;
  return workload::generate_poisson_schedule(types, config, util::Rng(seed).child("schedule"));
}

/// emu-dr: the emulated two-tier stack, the adjusted policy recovering
/// from bt -> is misclassification while tracking a demand-response
/// target.
engine::ScenarioSpec emu_dr_spec(std::uint64_t seed) {
  engine::ScenarioSpec spec;
  spec.name = "emu-dr";
  spec.backend = engine::Backend::kEmulated;
  spec.node_count = kEmuNodes;
  spec.seed = seed;
  spec.policy = "adjusted";
  spec.schedule = poisson_schedule(workload::nas_long_job_types(), kEmuNodes, kEmuHorizonS,
                                   kUtilization, seed);
  workload::misclassify(spec.schedule, "bt.D.x", "is.D.x");
  spec.targets = dr_targets(kEmuNodes, kEmuHorizonS, seed);
  spec.tracking_warmup_s = kTrackingWarmupS;
  spec.tracking_reserve_w = kReservePerNodeW * kEmuNodes;
  return spec;
}

/// tab-wide: the tabular backend with every job node_count/40 times its
/// default size, so per-node work dominates and the budgeter is idle.
engine::ScenarioSpec tab_wide_spec(std::uint64_t seed) {
  std::vector<workload::JobType> types;
  for (const workload::JobType& type : workload::nas_long_job_types()) {
    types.push_back(workload::scaled_job_type(type, kTabNodes / 40));
  }
  engine::ScenarioSpec spec;
  spec.name = "tab-wide";
  spec.backend = engine::Backend::kTabular;
  spec.node_count = kTabNodes;
  spec.seed = seed;
  spec.policy = "characterized";
  spec.schedule = poisson_schedule(types, kTabNodes, kTabHorizonS, kUtilization, seed);
  spec.targets = dr_targets(kTabNodes, kTabHorizonS, seed);
  spec.tracking_warmup_s = kTrackingWarmupS;
  spec.tracking_reserve_w = kReservePerNodeW * kTabNodes;
  return spec;
}

/// The i-th of `count` seeds drawn from the workload seed; different
/// workload seeds give disjoint sets.
std::uint64_t derived_seed(std::uint64_t seed, int count, int i) {
  return seed * static_cast<std::uint64_t>(count) + static_cast<std::uint64_t>(i);
}

/// sweep-cache: policy(4 built-ins) x utilization(4) x seed of
/// narrow-job 2048-node tabular cells, as an anor.sweep.v1 document.
util::Json sweep_grid_json(std::uint64_t seed) {
  const auto axis = [](const char* field, util::JsonArray values) {
    util::JsonObject out;
    out["field"] = util::Json(field);
    out["values"] = util::Json(std::move(values));
    return util::Json(std::move(out));
  };
  util::JsonArray policies;
  for (const char* policy : {"uniform", "characterized", "misclassified", "adjusted"}) {
    policies.push_back(util::Json(policy));
  }
  util::JsonArray utilizations;
  for (const double u : kSweepUtilizations) utilizations.push_back(util::Json(u));
  util::JsonArray seeds;
  for (int i = 0; i < kSweepSeeds; ++i) {
    seeds.push_back(util::Json(static_cast<std::int64_t>(derived_seed(seed, kSweepSeeds, i))));
  }

  util::JsonObject base;
  base["backend"] = util::Json("tabular");
  base["node_count"] = util::Json(kSweepNodes);
  base["perf_variation_sigma"] = util::Json(0.05);
  base["tracking_warmup_s"] = util::Json(kTrackingWarmupS);
  base["tracking_reserve_w"] = util::Json(kReservePerNodeW * kSweepNodes);
  util::JsonObject generate;
  generate["duration_s"] = util::Json(kSweepHorizonS);
  generate["signal"] = util::Json("dr");
  util::JsonArray axes;
  axes.push_back(axis("policy", std::move(policies)));
  axes.push_back(axis("utilization", std::move(utilizations)));
  axes.push_back(axis("seed", std::move(seeds)));

  util::JsonObject grid;
  grid["schema"] = util::Json("anor.sweep.v1");
  grid["name"] = util::Json("sweep-cache");
  grid["base"] = util::Json(std::move(base));
  grid["generate"] = util::Json(std::move(generate));
  grid["axes"] = util::Json(std::move(axes));
  return util::Json(std::move(grid));
}

// --- output checks ------------------------------------------------------

/// Attempted and failed operations (a run, a cell, or a cache round
/// trip); the first few failure reasons are kept for the report.
struct Checks {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> reasons;

  void record(const std::string& what, const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    if (reasons.size() < 20) reasons.push_back(what + ": " + problem);
  }
};

/// FNV-1a over the full-fidelity cache serialization.
std::uint64_t result_hash(const engine::RunResult& result) {
  return fnv1a(sweep::run_result_to_cache_json(result).dump());
}

/// Invariants of one finished run; empty when it passes.  The emulated
/// backend records each job's time-weighted node cap, which must lie in
/// the platform's node cap envelope; the tabular backend leaves it 0
/// (not recorded), so there 0 passes too.
std::string check_result(const engine::RunResult& result, engine::Backend backend) {
  if (result.jobs_submitted <= 0) return "no jobs submitted";
  if (result.jobs_completed != result.jobs_submitted) {
    return "completed " + std::to_string(result.jobs_completed) + " of " +
           std::to_string(result.jobs_submitted) + " jobs";
  }
  for (const engine::CompletedJob& job : result.completed) {
    const double cap = job.report.average_cap_w;
    const bool unrecorded = backend == engine::Backend::kTabular && cap == 0.0;
    if (!unrecorded &&
        !(cap >= workload::kNodeMinCapW - 1e-6 && cap <= workload::kNodeMaxCapW + 1e-6)) {
      return "job " + std::to_string(job.request.job_id) + " average cap " +
             std::to_string(cap) + " W outside the node cap envelope";
    }
  }
  if (result.power_w.empty()) return "empty power series";
  for (const double w : result.power_w.values()) {
    if (!std::isfinite(w) || w < 0.0) return "power sample " + std::to_string(w);
  }
  return {};
}

double average_slowdown(const engine::RunResult& result) {
  double sum = 0.0;
  for (const engine::CompletedJob& job : result.completed) sum += job.slowdown();
  return result.completed.empty() ? 0.0 : sum / static_cast<double>(result.completed.size());
}

/// The three control metrics of one run; a workload reports their means
/// over its instances or cells.
struct Control {
  double tracking_err_p90 = 0.0;
  double mean_slowdown = 0.0;
  double qos_worst_q90 = 0.0;

  static Control of(const engine::RunResult& result) {
    return {result.tracking.p90_error, average_slowdown(result), result.qos.worst_quantile()};
  }
  static Control mean(const std::vector<Control>& runs) {
    Control out;
    const double n = static_cast<double>(std::max<std::size_t>(runs.size(), 1));
    for (const Control& c : runs) {
      out.tracking_err_p90 += c.tracking_err_p90 / n;
      out.mean_slowdown += c.mean_slowdown / n;
      out.qos_worst_q90 += c.qos_worst_q90 / n;
    }
    return out;
  }
};

// --- per-process scratch directory ---------------------------------------

/// A unique directory for this process's result caches, removed on exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& parent) {
    fs::create_directories(parent);
    std::string pattern = (fs::path(parent) / "anor-perfbench-XXXXXX").string();
    if (mkdtemp(pattern.data()) == nullptr) {
      throw std::runtime_error("cannot create a scratch dir under " + parent);
    }
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// A fresh, empty subdirectory.
  std::string fresh(const std::string& name) {
    const fs::path dir = path_ / (name + "-" + std::to_string(next_++));
    fs::create_directories(dir);
    return dir.string();
  }
  static void remove(const std::string& dir) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

 private:
  fs::path path_;
  int next_ = 0;
};

sweep::CacheConfig disk_cache(const std::string& dir) {
  sweep::CacheConfig config;  // memory and disk tiers, as by default
  config.dir = dir;
  return config;
}

// --- profiler and registry readings --------------------------------------

/// Phase reports by name; phases that never ran read as zero.
class Spans {
 public:
  static Spans collect() {
    Spans spans;
    for (prof::PhaseReport& report : prof::Profiler::global().phase_report()) {
      spans.by_name_[report.name] = std::move(report);
    }
    return spans;
  }
  const prof::PhaseReport& operator[](const std::string& name) const {
    static const prof::PhaseReport kEmpty;
    const auto it = by_name_.find(name);
    return it == by_name_.end() ? kEmpty : it->second;
  }
  double total_ns(const std::string& name) const { return (*this)[name].total_ns; }
  double mean_ns(const std::string& name) const { return (*this)[name].mean_ns(); }
  double count(const std::string& name) const {
    return static_cast<double>((*this)[name].count);
  }

 private:
  std::map<std::string, prof::PhaseReport> by_name_;
};

/// Registry counters by name, summed over label sets.
std::map<std::string, double> counters() {
  std::map<std::string, double> out;
  for (const telemetry::MetricSnapshot& snap : telemetry::MetricsRegistry::global().snapshot()) {
    if (snap.kind == telemetry::MetricKind::kCounter) out[snap.name] += snap.value;
  }
  return out;
}

/// Empties the profiler (small rings: stats, not timelines) and zeroes
/// the registry.  Recording stays off until `traced` switches it on.
void reset_tracing() {
  prof::Profiler& profiler = prof::Profiler::global();
  profiler.set_enabled(false);
  profiler.set_trace_capacity(4096);
  profiler.reset();
  telemetry::MetricsRegistry::global().reset_values();
}

/// Runs `fn` with span recording on when `on`; returns its wall seconds.
template <typename Fn>
double traced(bool on, Fn&& fn) {
  prof::Profiler::global().set_enabled(on);
  const double seconds = timed(fn);
  prof::Profiler::global().set_enabled(false);
  return seconds;
}

// --- metric output --------------------------------------------------------

struct Metrics {
  util::JsonObject values;
  void set(const std::string& name, double value, const char* unit) {
    util::JsonObject entry;
    entry["value"] = util::Json(value);
    entry["unit"] = util::Json(unit);
    values[name] = util::Json(std::move(entry));
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// The end-to-end readings of one workload run.
struct EndToEnd {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double ns_per_node_tick = 0.0;
  double cells_per_s = 0.0;
  double cached_cells_per_s = 0.0;
  Control control;
};

void set_end_to_end(Metrics& m, const EndToEnd& e) {
  m.set("setup_s", e.setup_s, "s");
  m.set("wall_s", e.wall_s, "s");
  m.set("ns_per_node_tick", e.ns_per_node_tick, "ns");
  m.set("peak_rss_mb", peak_rss_mb(), "MB");
  m.set("cells_per_s", e.cells_per_s, "cells/s");
  m.set("cached_cells_per_s", e.cached_cells_per_s, "cells/s");
  m.set("tracking_err_p90", e.control.tracking_err_p90, "fraction");
  m.set("mean_slowdown", e.control.mean_slowdown, "fraction");
  m.set("qos_worst_q90", e.control.qos_worst_q90, "Q");
}

/// What the traced runs of a workload read, for set_per_layer.
struct LayerReadings {
  Spans spans;  // the program's spans over the traced engine runs
  Spans bench;  // benchmark-side spans
  std::map<std::string, double> counts;  // registry counters per engine run
  double ticks = 0.0;     // engine ticks over the traced engine runs
  double runs = 0.0;      // traced engine runs (grid passes on the sweep)
  double coverage = 0.0;  // share of their wall covered by engine spans
  double schedule_gen_ms = 0.0;  // input generation per engine run
  double run_ms_per_cell = 0.0;
  std::vector<double> cell_ms;
  double entry_bytes = 0.0;
  double cache_hit_rate = 0.0;
  double trace_overhead = 0.0;
};

/// The per-layer metrics, by module (perfbench/README.md has the map).
/// A layer the workload does not run reads 0.
void set_per_layer(Metrics& m, const LayerReadings& r) {
  const Spans& s = r.spans;
  const auto count = [&r](const char* name) {
    const auto it = r.counts.find(name);
    return it == r.counts.end() ? 0.0 : it->second;
  };
  const auto per_tick_us = [&](const char* span) {
    return ratio(s.total_ns(span) * 1e-3, r.ticks);
  };

  m.set("engine.ticks", ratio(r.ticks, r.runs), "count");
  m.set("engine.tick_us_p50", s["engine.tick"].p50_ns * 1e-3, "us");
  m.set("engine.tick_us_p99", s["engine.tick"].p99_ns * 1e-3, "us");
  m.set("engine.control_us_per_tick", per_tick_us("engine.control"), "us");
  m.set("engine.housekeeping_us_per_tick", per_tick_us("engine.housekeeping"), "us");
  m.set("engine.build_ms", r.bench.mean_ns("bench.build") * 1e-6, "ms");
  m.set("engine.span_coverage", r.coverage, "fraction");
  m.set("sim.node_update_us_per_tick", per_tick_us("engine.node_update"), "us");
  m.set("sim.refresh_us_per_tick", per_tick_us("sim.refresh"), "us");
  m.set("budget.solve_us_per_call", s.mean_ns("budget.solve") * 1e-3, "us");
  m.set("budget.solve_calls", ratio(s.count("budget.solve"), r.runs), "count");
  const double memo_hits = count("budget.memo_hits");
  m.set("budget.memo_hit_rate", ratio(memo_hits, memo_hits + count("budget.memo_misses")),
        "fraction");
  m.set("cluster.manager_us_per_tick", per_tick_us("engine.manager"), "us");
  m.set("cluster.channel_us_per_tick",
        per_tick_us("channel.send") + per_tick_us("channel.receive") +
            per_tick_us("channel.poll"),
        "us");
  m.set("cluster.channel_msgs", count("cluster.transport.inproc.sent"), "count");
  m.set("cluster.retry_attempts", count("retry.attempts"), "count");
  m.set("cluster.send_failed", count("transport.send_failed"), "count");
  m.set("geopm.job_control_us_per_tick", per_tick_us("engine.job_control"), "us");
  const double cap_writes = count("job.governor.cap_writes");
  const double suppressed = count("job.governor.cap_writes_suppressed");
  m.set("geopm.cap_writes", cap_writes, "count");
  m.set("geopm.cap_write_suppress_rate", ratio(suppressed, suppressed + cap_writes), "fraction");
  const double refits = count("job.modeler.refit_attempts");
  m.set("model.refit_attempts", refits, "count");
  m.set("model.refit_accept_rate", ratio(count("job.modeler.refit_accepted"), refits),
        "fraction");
  m.set("platform.hardware_us_per_tick", per_tick_us("engine.hardware"), "us");
  m.set("platform.msr_writes", count("node.msr.writes"), "count");
  m.set("platform.rapl_cap_clamped", count("node.rapl.cap_clamped"), "count");
  m.set("sched.scheduler_us_per_tick", per_tick_us("engine.scheduler"), "us");
  m.set("workload.schedule_gen_ms", r.schedule_gen_ms, "ms");
  m.set("sweep.run_ms_per_cell", r.run_ms_per_cell, "ms");
  m.set("sweep.store_ms_per_cell", r.bench.mean_ns("bench.cache_store") * 1e-6, "ms");
  m.set("sweep.lookup_ms_per_cell", r.bench.mean_ns("bench.cache_lookup") * 1e-6, "ms");
  m.set("sweep.canon_ms_per_cell", r.bench.mean_ns("bench.canonicalize") * 1e-6, "ms");
  m.set("sweep.entry_bytes_per_cell", r.entry_bytes, "bytes");
  m.set("sweep.cell_ms_p50", quantile(r.cell_ms, 0.5), "ms");
  m.set("sweep.cell_ms_p90", quantile(r.cell_ms, 0.9), "ms");
  m.set("sweep.cache_hit_rate", r.cache_hit_rate, "fraction");
  m.set("telemetry.trace_overhead_frac", r.trace_overhead, "fraction");
}

struct Outcome {
  Checks checks;
  Metrics metrics;
  std::string hash;
  util::JsonObject samples;  // timing sample summaries for the report line
};

/// Sample count, min, lower quartile, median and max of a set of timings.
util::Json samples_json(const std::vector<double>& values) {
  util::JsonObject out;
  out["n"] = util::Json(values.size());
  out["min"] = util::Json(values.empty() ? 0.0 : *std::min_element(values.begin(), values.end()));
  out["p25"] = util::Json(typical(values));
  out["median"] = util::Json(median(values));
  out["max"] = util::Json(values.empty() ? 0.0 : *std::max_element(values.begin(), values.end()));
  return util::Json(std::move(out));
}

Clock::time_point after(Clock::time_point start, double seconds) {
  return start +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

/// Whether a step as long as `step_s` still ends before `deadline`.
bool fits(Clock::time_point deadline, double step_s) {
  return Clock::now() + std::chrono::duration<double>(step_s) <= deadline;
}

/// Runs `fn`, recording an exception as the failure of `what`.
template <typename Fn>
bool attempt(Checks& checks, const std::string& what, Fn&& fn) {
  try {
    fn();
    return true;
  } catch (const std::exception& e) {
    checks.record(what, std::string("threw: ") + e.what());
    return false;
  }
}

// --- benchmark-side spans around the calls into the program ---------------

void build_once(const engine::ScenarioSpec& spec) {
  ANOR_PROF_SCOPE("bench.build");
  if (spec.backend == engine::Backend::kEmulated) {
    const cluster::EmulatedCluster cluster = engine::make_emulated_cluster(spec);
  } else {
    const sim::TabularSimulator simulator = engine::make_tabular_simulator(spec);
  }
}

engine::RunResult run_once(const engine::ScenarioSpec& spec) {
  ANOR_PROF_SCOPE("bench.run_scenario");
  return engine::run_scenario(spec);
}

/// Cache traffic of a run: serve times (canonicalization plus lookup),
/// lookups and disk hits, and the size of each stored entry.
struct CacheTrips {
  std::vector<double> serve_s;
  double lookups = 0.0;
  double hits = 0.0;
  std::vector<double> entry_bytes;
};

/// Stores one cell's result into the disk cache at `dir` through a fresh
/// ResultCache.
void store_entry(const engine::ScenarioSpec& spec, const engine::RunResult& result,
                 const std::string& dir, Checks& checks, CacheTrips& trips) {
  const bool stored = attempt(checks, "cache store", [&] {
    {
      ANOR_PROF_SCOPE("bench.cache_json");
      trips.entry_bytes.push_back(
          static_cast<double>(sweep::run_result_to_cache_json(result).dump().size()));
    }
    sweep::CanonicalSpec canon;
    {
      ANOR_PROF_SCOPE("bench.canonicalize");
      canon = sweep::canonicalize_spec(spec);
    }
    sweep::ResultCache writer(disk_cache(dir));
    ANOR_PROF_SCOPE("bench.cache_store");
    writer.store(canon, result);
  });
  if (stored) checks.record("cache store", {});
}

/// Serves one cell from a new ResultCache over `dir`; it must be a disk
/// hit identical to the computed result.
void serve_entry(const engine::ScenarioSpec& spec, const std::string& dir,
                 std::uint64_t reference_hash, Checks& checks, CacheTrips& trips) {
  attempt(checks, "cache lookup", [&] {
    sweep::ResultCache reader(disk_cache(dir));
    engine::RunResult served;
    sweep::CacheOutcome outcome = sweep::CacheOutcome::kMiss;
    const double serve_s = timed([&] {
      sweep::CanonicalSpec canon;
      {
        ANOR_PROF_SCOPE("bench.canonicalize");
        canon = sweep::canonicalize_spec(spec);
      }
      ANOR_PROF_SCOPE("bench.cache_lookup");
      outcome = reader.lookup(canon, &served);
    });
    trips.lookups += 1.0;
    std::string problem;
    if (outcome != sweep::CacheOutcome::kDiskHit) {
      problem = std::string("cache lookup was a ") + sweep::to_string(outcome);
    } else if (result_hash(served) != reference_hash) {
      problem = "cached result differs from the computed one";
    } else {
      trips.hits += 1.0;
      trips.serve_s.push_back(serve_s);
    }
    checks.record("cache lookup", problem);
  });
}

// --- scenario workloads (emu-dr, tab-wide) --------------------------------

/// A scenario workload is `count` specs drawn from the seed.  First
/// each instance runs once traced: its engine ticks, reference hash and
/// control metrics.  Then rounds over the instances fill the time budget,
/// each at least once: five builds (setup), an untraced run (wall,
/// checked against the reference) and four serves from a disk cache of
/// the instance's own, which its first round stores the result into.
/// Interleaving the three timings spreads each over the whole run, and
/// running every instance once before any timing lets the process-global
/// registries reach their steady size first.  The traced run makes one round in
/// which each instance also runs traced, paired with its untraced run.
Outcome run_scenario_workload(const std::function<engine::ScenarioSpec(std::uint64_t)>& make_spec,
                              int count, std::uint64_t seed, double seconds, bool trace,
                              ScratchDir& scratch) {
  Outcome out;
  const auto start = Clock::now();
  reset_tracing();

  struct Instance {
    engine::ScenarioSpec spec;
    engine::RunResult first;  // until stored into the cache
    std::string cache_dir;
    std::uint64_t hash = 0;  // 0 until its first run succeeded
    double node_ticks = 0.0;
  };
  std::vector<Instance> instances;
  std::vector<Control> controls;
  CacheTrips trips;
  std::uint64_t combined = 1469598103934665603ULL;
  LayerReadings r;

  for (int i = 0; i < count; ++i) {
    Instance inst;
    traced(true, [&] { inst.spec = make_spec(derived_seed(seed, count, i)); });
    engine::RunResult result;
    double ticks = Spans::collect().count("engine.tick");
    bool ran = false;
    traced(true, [&] {
      ran = attempt(out.checks, "first run", [&] { result = run_once(inst.spec); });
    });
    if (!ran) continue;
    ticks = Spans::collect().count("engine.tick") - ticks;
    inst.node_ticks = ticks * inst.spec.node_count;
    inst.hash = result_hash(result);
    combined = fnv1a(hex(inst.hash), combined);
    out.checks.record("first run", check_result(result, inst.spec.backend));
    controls.push_back(Control::of(result));
    inst.first = std::move(result);
    instances.push_back(std::move(inst));
  }
  out.hash = hex(combined);
  if (instances.empty()) return out;
  r.schedule_gen_ms = Spans::collect().mean_ns("bench.schedule_gen") * 1e-6;

  // Timed rounds.  The traced run resets the profiler and registry here,
  // so its layer readings cover the paired traced runs alone.
  if (trace) reset_tracing();
  std::vector<double> setup;
  std::vector<double> walls;
  std::vector<double> node_ticks;  // of each timed run's instance
  std::vector<double> overheads;
  const auto timed_run = [&](const Instance& inst, bool profiled) {
    std::map<std::string, double> before;
    if (profiled) before = counters();
    engine::RunResult result;
    bool ran = false;
    const double wall = traced(profiled, [&] {
      ran = attempt(out.checks, "run", [&] { result = run_once(inst.spec); });
    });
    if (ran) {
      std::string problem = check_result(result, inst.spec.backend);
      if (problem.empty() && result_hash(result) != inst.hash) {
        problem = "result hash differs from the first run's";
      }
      out.checks.record("run", problem);
    }
    if (profiled) {
      for (const auto& [name, value] : counters()) {
        const auto it = before.find(name);
        r.counts[name] += value - (it == before.end() ? 0.0 : it->second);
      }
      r.ticks += inst.node_ticks / inst.spec.node_count;
      r.runs += 1.0;
    }
    return wall;
  };
  const auto deadline = after(start, seconds);
  double slowest_step = 0.0;
  for (std::size_t k = 0; k < instances.size() || (!trace && fits(deadline, slowest_step)); ++k) {
    Instance& inst = instances[k % instances.size()];
    slowest_step = std::max(slowest_step, timed([&] {
      for (int b = 0; b < 5; ++b) setup.push_back(traced(trace, [&] { build_once(inst.spec); }));
      const double wall = timed_run(inst, false);
      walls.push_back(wall);
      node_ticks.push_back(inst.node_ticks);
      if (trace) overheads.push_back(ratio(timed_run(inst, true), wall) - 1.0);
      if (inst.cache_dir.empty()) {
        inst.cache_dir = scratch.fresh("cell");
        traced(trace,
               [&] { store_entry(inst.spec, inst.first, inst.cache_dir, out.checks, trips); });
        inst.first = engine::RunResult();
      }
      for (int l = 0; l < 4; ++l) {
        traced(trace,
               [&] { serve_entry(inst.spec, inst.cache_dir, inst.hash, out.checks, trips); });
      }
    }));
  }
  for (const Instance& inst : instances) ScratchDir::remove(inst.cache_dir);
  out.samples["setup_s"] = samples_json(setup);
  out.samples["wall_s"] = samples_json(walls);
  out.samples["cached_serve_s"] = samples_json(trips.serve_s);

  if (!trace) {
    EndToEnd e;
    e.setup_s = typical(setup);
    e.wall_s = typical(walls);
    std::vector<double> ns;
    for (std::size_t i = 0; i < walls.size(); ++i) {
      ns.push_back(ratio((walls[i] - e.setup_s) * 1e9, node_ticks[i]));
    }
    e.ns_per_node_tick = typical(ns);
    e.cells_per_s = ratio(1.0, e.wall_s);
    e.cached_cells_per_s = ratio(1.0, typical(trips.serve_s));
    e.control = Control::mean(controls);
    set_end_to_end(out.metrics, e);
    return out;
  }

  r.spans = Spans::collect();
  r.bench = r.spans;
  for (auto& [name, value] : r.counts) value = ratio(value, r.runs);
  // Construction runs inside run_scenario before the first tick; it is
  // attributed with the separately timed builds of the same specs.
  r.coverage = ratio(r.spans.total_ns("engine.tick") + r.runs * r.bench.mean_ns("bench.build"),
                     r.spans.total_ns("bench.run_scenario"));
  r.run_ms_per_cell = median(walls) * 1e3;
  for (const double w : walls) r.cell_ms.push_back(w * 1e3);
  r.entry_bytes = median(trips.entry_bytes);
  r.cache_hit_rate = ratio(trips.hits, trips.lookups);
  r.trace_overhead = median(overheads);
  set_per_layer(out.metrics, r);
  return out;
}

// --- the sweep workload ---------------------------------------------------

/// Full-fidelity hashes of every cell, computed on up to four threads.
std::vector<std::uint64_t> hash_cells(const sweep::SweepReport& report) {
  const std::size_t n = report.cells.size();
  std::vector<std::uint64_t> hashes(n, 0);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> team;
  const std::size_t workers = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  for (std::size_t w = 0; w < workers; ++w) {
    team.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          hashes[i] = result_hash(report.cells[i].result);
        } catch (...) {
          hashes[i] = 0;  // reads as a mismatch
        }
      }
    });
  }
  for (std::thread& thread : team) thread.join();
  return hashes;
}

/// Setup as the sweep pays it: parse, expand and materialize every cell.
std::vector<engine::ScenarioSpec> materialize_all(const util::Json& grid_json) {
  const sweep::SweepGrid grid = sweep::SweepGrid::from_json(grid_json);
  sweep::SweepMaterializer materializer(grid);
  std::vector<engine::ScenarioSpec> specs;
  for (const sweep::SweepCell& cell : grid.expand()) {
    specs.push_back(materializer.materialize(cell));
  }
  return specs;
}

/// Runs the grid through run_sweep against one cache directory and
/// checks every cell: the run invariants, the expected cache outcome and,
/// when `hash` is set, bit-identity with the reference results.  Pass 1
/// (an empty directory) must compute and store every cell; pass 2 (a new
/// ResultCache over the filled directory) must serve every cell from
/// disk.  A pass is timed from the grid document to the report.
class SweepPasses {
 public:
  SweepPasses(const util::Json& grid_json, ScratchDir& scratch, Checks& checks)
      : grid_json_(grid_json), scratch_(scratch), checks_(checks) {
    options_.run_workers =
        static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  }

  /// Starts a new empty cache directory, removing the previous one.
  void fresh_cache() {
    if (!options_.cache.dir.empty()) ScratchDir::remove(options_.cache.dir);
    options_.cache = disk_cache(scratch_.fresh("sweep-cache"));
  }

  double pass(sweep::CacheOutcome expected, bool hash, sweep::SweepReport* keep = nullptr) {
    sweep::SweepReport report;
    const double wall = timed([&] {
      report = sweep::run_sweep(sweep::SweepGrid::from_json(grid_json_), options_);
    });
    std::vector<std::uint64_t> hashes;
    if (hash) hashes = hash_cells(report);
    if (hash && reference_.empty()) reference_ = hashes;
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
      const sweep::SweepCellResult& cell = report.cells[i];
      std::string problem = check_result(cell.result, engine::Backend::kTabular);
      if (problem.empty() && cell.cache != expected) {
        problem = std::string("cache outcome ") + sweep::to_string(cell.cache) + ", expected " +
                  sweep::to_string(expected);
      }
      if (problem.empty() && hash && hashes[i] != reference_[i]) {
        problem = "result differs from the first pass's";
      }
      checks_.record(std::string(sweep::to_string(expected)) + " " + cell.cell.name, problem);
    }
    last_hit_rate_ = report.cache_stats.hit_rate();
    if (keep != nullptr) *keep = std::move(report);
    return wall;
  }

  /// Cell hashes of the first hashed pass, grid order.
  const std::vector<std::uint64_t>& reference() const { return reference_; }
  double last_hit_rate() const { return last_hit_rate_; }

 private:
  const util::Json& grid_json_;
  ScratchDir& scratch_;
  Checks& checks_;
  sweep::SweepOptions options_;
  std::vector<std::uint64_t> reference_;
  double last_hit_rate_ = 0.0;
};

/// The sweep workload: setup timed on its own; an untimed, traced
/// warm-up pass 1 (engine ticks, reference hashes, control metrics); then
/// timed repetitions of pass 1 and pass 2.  Every pass-2 result is checked
/// by hash against the warm-up's pass 1; since pass 2 serves what the
/// same repetition's pass 1 stored, that also checks pass 1's results.  The
/// traced run adds a traced pass 1 for the layer readings and replays
/// one seed's cells through the executor's public calls in
/// benchmark-side spans.
Outcome run_sweep_workload(std::uint64_t seed, double seconds, bool trace, ScratchDir& scratch) {
  Outcome out;
  const auto start = Clock::now();
  const util::Json grid_json = sweep_grid_json(seed);
  std::vector<engine::ScenarioSpec> specs;
  std::vector<double> setup;
  const auto setup_deadline = after(start, 0.05 * seconds);
  while (setup.size() < 5 || (setup.size() < 20 && fits(setup_deadline, median(setup)))) {
    setup.push_back(timed([&] { specs = materialize_all(grid_json); }));
  }
  const double cells = static_cast<double>(specs.size());
  SweepPasses passes(grid_json, scratch, out.checks);

  reset_tracing();
  sweep::SweepReport warm;
  double ticks = 0.0;
  if (!attempt(out.checks, "warm-up sweep", [&] {
        passes.fresh_cache();
        traced(true, [&] { passes.pass(sweep::CacheOutcome::kMiss, true, &warm); });
        ticks = Spans::collect().count("engine.tick");
      })) {
    return out;
  }
  std::vector<Control> controls;
  for (const sweep::SweepCellResult& cell : warm.cells) {
    controls.push_back(Control::of(cell.result));
  }
  warm = {};
  std::uint64_t combined = 1469598103934665603ULL;
  for (const std::uint64_t h : passes.reference()) combined = fnv1a(hex(h), combined);
  out.hash = hex(combined);

  std::vector<double> pass1;
  std::vector<double> pass2;
  const auto deadline = after(start, trace ? 0.5 * seconds : seconds);
  double slowest_rep = 0.0;  // passes plus their checks
  bool ok = true;
  while (ok && (pass1.empty() || fits(deadline, slowest_rep))) {
    slowest_rep = std::max(slowest_rep, timed([&] {
      ok = attempt(out.checks, "sweep", [&] {
        passes.fresh_cache();
        pass1.push_back(passes.pass(sweep::CacheOutcome::kMiss, false));
        pass2.push_back(passes.pass(sweep::CacheOutcome::kDiskHit, true));
      });
    }));
  }
  out.samples["setup_s"] = samples_json(setup);
  out.samples["pass1_s"] = samples_json(pass1);
  out.samples["pass2_s"] = samples_json(pass2);

  if (!trace) {
    EndToEnd e;
    e.setup_s = typical(setup);
    e.wall_s = typical(pass1);
    e.ns_per_node_tick = ratio((e.wall_s - e.setup_s) * 1e9, ticks * kSweepNodes);
    e.cells_per_s = ratio(cells, e.wall_s);
    e.cached_cells_per_s = ratio(cells, typical(pass2));
    e.control = Control::mean(controls);
    set_end_to_end(out.metrics, e);
    return out;
  }

  LayerReadings r;
  r.cache_hit_rate = passes.last_hit_rate();
  reset_tracing();
  sweep::SweepReport traced_report;
  double traced_pass1 = 0.0;
  attempt(out.checks, "traced sweep", [&] {
    passes.fresh_cache();
    traced(true, [&] {
      traced_pass1 = passes.pass(sweep::CacheOutcome::kMiss, true, &traced_report);
    });
  });
  r.spans = Spans::collect();
  r.counts = counters();
  r.ticks = ticks;
  r.runs = 1.0;  // one pass over the grid
  for (const sweep::SweepCellResult& cell : traced_report.cells) {
    r.cell_ms.push_back(cell.wall_s * 1e3);
  }
  traced_report = {};
  r.trace_overhead = ratio(traced_pass1, median(pass1)) - 1.0;

  // Replay of the first seed's cells, one call at a time.
  prof::Profiler::global().set_enabled(true);
  for (const double u : kSweepUtilizations) {
    for (int i = 0; i < kSweepSeeds; ++i) {
      (void)poisson_schedule(workload::nas_long_job_types(), kSweepNodes, kSweepHorizonS, u,
                             derived_seed(seed, kSweepSeeds, i));
    }
  }
  sim::WarmStart warm_start;
  CacheTrips trips;
  const std::vector<sweep::SweepCell> grid_cells = sweep::SweepGrid::from_json(grid_json).expand();
  for (std::size_t i = 0; i < specs.size(); i += kSweepSeeds) {
    const engine::ScenarioSpec& spec = specs[i];
    engine::RunResult result;
    const std::string what = "replay " + grid_cells[i].name;
    if (!attempt(out.checks, what, [&] {
          build_once(spec);
          ANOR_PROF_SCOPE("bench.run_scenario");
          result = engine::run_scenario_warm(spec, warm_start);
        })) {
      continue;
    }
    std::string problem = check_result(result, engine::Backend::kTabular);
    if (problem.empty() && result_hash(result) != passes.reference()[i]) {
      problem = "replayed cell differs from the sweep's result";
    }
    out.checks.record(what, problem);
    const std::string dir = scratch.fresh("cell");
    store_entry(spec, result, dir, out.checks, trips);
    serve_entry(spec, dir, passes.reference()[i], out.checks, trips);
    ScratchDir::remove(dir);
  }
  prof::Profiler::global().set_enabled(false);
  r.bench = Spans::collect();
  r.schedule_gen_ms = r.bench.total_ns("bench.schedule_gen") * 1e-6;
  r.coverage = ratio(r.spans.total_ns("engine.tick"), r.spans.total_ns("sweep.cell"));
  r.run_ms_per_cell = r.bench.mean_ns("bench.run_scenario") * 1e-6;
  r.entry_bytes = median(trips.entry_bytes);
  set_per_layer(out.metrics, r);
  return out;
}

// --- main -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/tmp";
  std::string revision = "unknown";
};

int usage(const std::string& problem) {
  std::fprintf(stderr,
               "anor_perfbench: %s\nusage: anor_perfbench --workload "
               "{emu-dr|tab-wide|sweep-cache} --seed N --seconds S --trace {0|1} "
               "[--work-dir DIR] [--revision REV]\n",
               problem.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; i += 2) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + arg);
      const std::string value = argv[i + 1];
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = value == "1";
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else if (arg == "--revision") {
        opt.revision = value;
      } else {
        return usage("unknown argument " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  prof::Profiler::set_thread_name("main");
  const auto start = Clock::now();

  if (opt.workload != "emu-dr" && opt.workload != "tab-wide" && opt.workload != "sweep-cache") {
    return usage("unknown workload '" + opt.workload + "'");
  }
  Outcome out;
  try {
    ScratchDir scratch(opt.work_dir);
    if (opt.workload == "emu-dr") {
      out = run_scenario_workload(emu_dr_spec, kEmuInstances, opt.seed, opt.seconds, opt.trace,
                                  scratch);
    } else if (opt.workload == "tab-wide") {
      out = run_scenario_workload(tab_wide_spec, kTabInstances, opt.seed, opt.seconds,
                                  opt.trace, scratch);
    } else {
      out = run_sweep_workload(opt.seed, opt.seconds, opt.trace, scratch);
    }
  } catch (const std::exception& e) {
    // Failures of single runs are caught and counted where they happen;
    // anything reaching here leaves nothing to report.
    std::fprintf(stderr, "anor_perfbench: %s\n", e.what());
    return 3;
  }

  const bool correct = out.checks.attempted > 0 && out.checks.failed == 0;
  if (opt.trace) {
    out.metrics.set("failed_frac",
                    ratio(static_cast<double>(out.checks.failed),
                          static_cast<double>(out.checks.attempted)),
                    "fraction");
  }

  // Report line: provenance, result hash, failures and timing samples.
  util::JsonObject report;
  report["workload"] = util::Json(opt.workload);
  report["seed"] = util::Json(std::to_string(opt.seed));
  report["trace"] = util::Json(opt.trace);
  report["revision"] = util::Json(opt.revision);
  report["build_type"] = util::Json(ANOR_PERFBENCH_BUILD_TYPE);
  report["nproc"] = util::Json(static_cast<int>(std::thread::hardware_concurrency()));
  report["result_hash"] = util::Json(out.hash);
  report["elapsed_s"] = util::Json(seconds_since(start));
  util::JsonArray reasons;
  for (const std::string& reason : out.checks.reasons) reasons.push_back(util::Json(reason));
  report["failures"] = util::Json(std::move(reasons));
  report["samples"] = util::Json(std::move(out.samples));
  util::JsonObject report_line;
  report_line["report"] = util::Json(std::move(report));
  std::printf("%s\n", util::Json(std::move(report_line)).dump().c_str());

  util::JsonObject result;
  result["correct"] = util::Json(correct);
  result["attempted"] = util::Json(out.checks.attempted);
  result["failed"] = util::Json(out.checks.failed);
  result["metrics"] = util::Json(std::move(out.metrics.values));
  std::printf("%s\n", util::Json(std::move(result)).dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

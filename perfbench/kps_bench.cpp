// kps_bench — the repository benchmark: one process, at most four worker
// threads, two oracle-checked workloads.  See README.md in this
// directory for the workloads, the layers each one loads or bypasses,
// and how to read every metric.
//
//   kps_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   kps_bench --selftest [--seed <n>]
//
// --trace 0 prints the end-to-end metrics of untraced solves; --trace 1
// times the same solves through TimedStorage and prints the per-layer
// metrics.  The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// Every parallel solve is checked against the workload's sequential
// oracle and the task ledger; a solve that fails either counts as failed.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/centralized_kpq.hpp"
#include "core/hybrid_kpq.hpp"
#include "graph/dijkstra.hpp"
#include "graph/generators.hpp"
#include "graph/sssp.hpp"
#include "timed_storage.hpp"
#include "workloads/des.hpp"

namespace kps::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kPlaces = 4;  // the P of every timed solve
constexpr int kWindow = 512;        // k of every workload
constexpr int kCycles = 8;          // repeats of set-up + configuration blocks
constexpr int kMinSolves = 2;       // timed solves per block, however long
// Untimed P=4 solves before the first P=4 block.  A virtual machine can
// take one to two seconds of four-thread load after a single-threaded
// stretch (the set-up) before all four CPUs run in parallel.
constexpr double kWarmupSeconds = 2.0;
// Shares of --seconds: sequential solves, then P=4 solves (untraced and
// traced in turn with --trace 1), then P=1 solves (--trace 0 only).
constexpr double kSeqShare = 0.25;
constexpr double kP4Share = 0.35;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

StorageConfig storage_config(std::uint64_t seed) {
  StorageConfig cfg;
  cfg.k_max = kWindow;
  cfg.default_k = kWindow;
  cfg.seed = seed;
  return cfg;
}

/// What a workload's run() reports about one parallel solve.
struct RunOut {
  bool matches_oracle = false;
  double useful = 0;  // work_ratio numerator (see README.md)
  double runner_seconds = 0;
  std::uint64_t floor_loads = 0;   // DES only
  std::uint64_t claimed_pops = 0;  // DES only
  std::uint64_t deferred = 0;      // DES only
  std::uint64_t events = 0;        // DES only
};

// ------------------------------------------------------------ workloads

/// SSSP from node 0 of an undirected G(n, p) with U(0, 1] weights, on the
/// hybrid storage; Dijkstra is the oracle and the sequential baseline.
class SsspWorkload {
 public:
  using Storage = HybridKpq<SsspTask>;

  SsspWorkload(Graph::node_t n, double p) : n_(n), p_(p) {}

  void generate(std::uint64_t seed) {
    g_ = Graph{};  // free the previous graph before building the next
    g_ = erdos_renyi(n_, p_, mix(seed ^ 0x55a1));
  }

  void compute_oracle() { truth_ = dijkstra(g_, 0); }

  /// One more sequential solve, timed, then compared with the oracle.
  bool sequential(double* seconds) const {
    const auto t0 = Clock::now();
    const DijkstraResult r = dijkstra(g_, 0);
    *seconds = seconds_since(t0);
    return r.dist == truth_.dist;
  }

  double oracle_work() const {
    return static_cast<double>(truth_.relaxations);
  }

  template <typename St>
  RunOut run(St& storage, StatsRegistry& stats) const {
    const SsspResult r = parallel_sssp(g_, 0, storage, kWindow, &stats);
    RunOut out;
    out.matches_oracle = r.dist == truth_.dist;
    out.useful = static_cast<double>(r.nodes_relaxed);
    out.runner_seconds = r.seconds;
    return out;
  }

 private:
  Graph::node_t n_;
  double p_;
  Graph g_;
  DijkstraResult truth_;
};

/// PHOLD-style DES on the centralized storage; des_sequential is the
/// oracle and the sequential baseline.
class DesWorkload {
 public:
  using Storage = CentralizedKpq<DesTask>;

  explicit DesWorkload(DesParams base) : params_(base) {}

  void generate(std::uint64_t seed) { params_.seed = mix(seed ^ 0xde5); }

  void compute_oracle() { truth_ = des_sequential(params_); }

  bool sequential(double* seconds) const {
    const auto t0 = Clock::now();
    const DesOutcome r = des_sequential(params_);
    *seconds = seconds_since(t0);
    return r == truth_;
  }

  double oracle_work() const { return static_cast<double>(truth_.events); }

  template <typename St>
  RunOut run(St& storage, StatsRegistry& stats) const {
    const DesRun r = des_parallel(params_, storage, kWindow, &stats);
    RunOut out;
    out.matches_oracle = r.outcome == truth_;
    out.useful = static_cast<double>(r.outcome.events + r.deferred);
    out.runner_seconds = r.runner.seconds;
    out.floor_loads = r.floor_loads;
    out.claimed_pops = r.runner.expanded + r.runner.wasted;
    out.deferred = r.deferred;
    out.events = r.outcome.events;
    return out;
  }

 private:
  DesParams params_;
  DesOutcome truth_;
};

// ---------------------------------------------------------------- solves

/// One parallel solve, checked and timed from outside.
struct Solve {
  double seconds = 0;  // the whole solve call, as a caller sees it
  bool exact = false;  // oracle match and balanced ledger
  RunOut run;
  PlaceStats totals;
  double max_place_share = 0;
  LayerTimes times;  // traced solves only
  HistogramSnapshot push_ns, pop_hit_ns, pop_miss_ns;
};

bool ledger_balances(const PlaceStats& t) {
  return t.get(Counter::tasks_spawned) ==
         t.get(Counter::tasks_executed) + t.get(Counter::tasks_shed) +
             t.get(Counter::tasks_cancelled);
}

template <typename W>
Solve solve(const W& w, std::size_t places, bool traced,
            std::uint64_t storage_seed) {
  using S = typename W::Storage;
  StatsRegistry stats(places);
  S storage(places, storage_config(storage_seed), &stats);
  std::optional<TimedStorage<S>> timed;
  if (traced) timed.emplace(storage);

  Solve s;
  const auto t0 = Clock::now();
  s.run = traced ? w.run(*timed, stats) : w.run(storage, stats);
  s.seconds = seconds_since(t0);

  s.totals = stats.total();
  s.exact = s.run.matches_oracle && ledger_balances(s.totals);
  std::uint64_t top = 0;
  for (std::size_t p = 0; p < places; ++p) {
    top = std::max(top, stats.snapshot(p).get(Counter::tasks_executed));
  }
  s.max_place_share = ratio(static_cast<double>(top),
                            static_cast<double>(s.totals.get(
                                Counter::tasks_executed)));
  if (traced) {
    s.times = timed->times();
    s.push_ns = timed->push_ns();
    s.pop_hit_ns = timed->pop_hit_ns();
    s.pop_miss_ns = timed->pop_miss_ns();
  }
  return s;
}

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Report {
 public:
  void add(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), std::isfinite(value) ? value : 0,
                        unit});
  }

  void check(bool exact) {
    ++attempted_;
    if (!exact) ++failed_;
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  void print() const {
    for (const Metric& m : metrics_) {
      std::printf("# %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit);
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ----------------------------------------------------------- the run

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  int trace = -1;
  bool selftest = false;
};

template <typename W>
int run_workload(W& w, const Options& opt) {
  Report report;
  const std::uint64_t storage_seed = mix(opt.seed ^ 0x5707);

  // One set-up per cycle: input, oracle, storage construction.  The
  // same seed regenerates the same input.
  std::vector<double> setup_s, gen_s, oracle_s, ctor_s;
  auto set_up = [&] {
    const auto t0 = Clock::now();
    w.generate(opt.seed);
    gen_s.push_back(seconds_since(t0));
    const auto t1 = Clock::now();
    w.compute_oracle();
    oracle_s.push_back(seconds_since(t1));
    const auto t2 = Clock::now();
    {
      StatsRegistry stats(kPlaces);
      typename W::Storage storage(kPlaces, storage_config(storage_seed),
                                  &stats);
      ctor_s.push_back(seconds_since(t2));
    }
    setup_s.push_back(seconds_since(t0));
  };

  const bool traced = opt.trace == 1;
  std::vector<double> seq, wall4, wall1, work, traced4, share;
  LayerTimes times;
  double places_wall = 0;  // sum over traced solves of P * runner wall
  HistogramSnapshot push_ns, pop_hit_ns, pop_miss_ns;
  PlaceStats totals;
  std::uint64_t floor_loads = 0, claimed_pops = 0, deferred = 0, events = 0;
  std::uint64_t traced_solves = 0, traced_failed = 0;

  // Solves run in blocks, one configuration at a time, so that no
  // single-threaded solve sits between two timed P=4 solves.  The
  // set-up and the blocks repeat in kCycles cycles so that each
  // configuration samples the machine at several times of the run: on a
  // shared virtual machine, single-threaded speed drifts by 10-30% over
  // seconds.
  auto block = [&](double share_of_run, auto&& one_solve) {
    const auto b0 = Clock::now();
    const double budget = share_of_run * opt.seconds / kCycles;
    for (int i = 0; i < kMinSolves || seconds_since(b0) < budget; ++i) {
      one_solve();
    }
  };
  // Untimed solves of one configuration, at least one and for at least
  // `min_seconds`; returns the first one's time.
  auto warm_up = [&](std::size_t places, double min_seconds) {
    const auto b0 = Clock::now();
    double first = -1;
    while (first < 0 || seconds_since(b0) < min_seconds) {
      const Solve s = solve(w, places, false, storage_seed);
      report.check(s.exact);
      if (first < 0) first = s.seconds;
    }
    return first;
  };
  auto seq_solve = [&] {
    double seq_s = 0;
    report.check(w.sequential(&seq_s));
    seq.push_back(seq_s);
  };
  auto p4_solve = [&] {
    const Solve s4 = solve(w, kPlaces, false, storage_seed);
    report.check(s4.exact);
    wall4.push_back(s4.seconds);
    work.push_back(s4.run.useful / w.oracle_work());
    if (!traced) return;

    const Solve t = solve(w, kPlaces, true, storage_seed);
    report.check(t.exact);
    ++traced_solves;
    if (!t.exact) ++traced_failed;
    traced4.push_back(t.seconds);
    times += t.times;
    places_wall += static_cast<double>(kPlaces) * t.run.runner_seconds;
    push_ns.merge(t.push_ns);
    pop_hit_ns.merge(t.pop_hit_ns);
    pop_miss_ns.merge(t.pop_miss_ns);
    totals += t.totals;
    share.push_back(t.max_place_share);
    floor_loads += t.run.floor_loads;
    claimed_pops += t.run.claimed_pops;
    deferred += t.run.deferred;
    events += t.run.events;
  };
  auto p1_solve = [&] {
    const Solve s1 = solve(w, 1, false, storage_seed);
    report.check(s1.exact);
    wall1.push_back(s1.seconds);
  };

  double warmup_s = 0;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    set_up();
    block(kSeqShare, seq_solve);
    if (cycle == 0) warmup_s = warm_up(kPlaces, kWarmupSeconds);
    block(traced ? 1.0 - kSeqShare : kP4Share, p4_solve);
    if (traced) continue;
    if (cycle == 0) warm_up(1, 0);
    block(1.0 - kSeqShare - kP4Share, p1_solve);
  }

  if (!traced) {
    report.add("wall_s", median(wall4), "s");
    report.add("wall_p1_s", median(wall1), "s");
    report.add("speedup", median(seq) / median(wall4), "x");
    report.add("work_ratio", median(work), "ratio");
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    report.add("exact_frac",
               1.0 - ratio(static_cast<double>(report.failed()),
                           static_cast<double>(report.attempted())),
               "ratio");
  } else {
    const double ns_wall = places_wall * 1e9;
    const double pop_calls =
        static_cast<double>(times.pop_hits + times.pop_misses);
    const double executed =
        static_cast<double>(totals.get(Counter::tasks_executed));
    auto per_task = [&](Counter c) {
      return ratio(static_cast<double>(totals.get(c)), executed);
    };
    auto per_pop = [&](Counter c) {
      return ratio(static_cast<double>(totals.get(c)), pop_calls);
    };
    auto q = [](const HistogramSnapshot& h, double quantile) {
      return static_cast<double>(h.quantile(quantile));
    };
    report.add("storage.push_ns.p50", q(push_ns, 0.50), "ns");
    report.add("storage.push_ns.p99", q(push_ns, 0.99), "ns");
    report.add("storage.pop_hit_ns.p50", q(pop_hit_ns, 0.50), "ns");
    report.add("storage.pop_hit_ns.p99", q(pop_hit_ns, 0.99), "ns");
    report.add("storage.pop_miss_ns.p50", q(pop_miss_ns, 0.50), "ns");
    report.add("storage.pop_miss_frac",
               ratio(static_cast<double>(times.pop_misses), pop_calls),
               "ratio");
    report.add("storage.busy_frac",
               ratio(static_cast<double>(times.push_ns + times.pop_hit_ns +
                                         times.pop_miss_ns),
                     ns_wall),
               "ratio");
    report.add("storage.publishes_per_task", per_task(Counter::publishes),
               "count/task");
    report.add("storage.spied_per_task", per_task(Counter::spied_items),
               "count/task");
    report.add("storage.inbox_appends_per_task",
               per_task(Counter::inbox_appends), "count/task");
    report.add("storage.inbox_full_fallbacks",
               static_cast<double>(totals.get(Counter::inbox_full_fallbacks)),
               "count");
    report.add("storage.slot_loads_per_pop", per_pop(Counter::slot_loads),
               "count/pop");
    report.add("storage.min_heals_per_pop", per_pop(Counter::min_heals),
               "count/pop");
    report.add("storage.pop_cas_failures_per_pop",
               per_pop(Counter::pop_cas_failures), "count/pop");
    report.add("body.ns_per_task",
               ratio(static_cast<double>(times.body_ns),
                     static_cast<double>(times.pop_hits)),
               "ns");
    report.add("body.busy_frac",
               ratio(static_cast<double>(times.body_ns), ns_wall), "ratio");
    report.add("runner.idle_frac",
               ratio(static_cast<double>(times.idle_ns), ns_wall), "ratio");
    report.add("runner.max_place_share", median(share), "ratio");
    report.add("des.floor_loads_per_pop",
               ratio(static_cast<double>(floor_loads),
                     static_cast<double>(claimed_pops)),
               "count/pop");
    report.add("des.deferred_per_event",
               ratio(static_cast<double>(deferred),
                     static_cast<double>(events)),
               "count/event");
    report.add("oracle.seq_s", median(seq), "s");
    report.add("setup.gen_s", median(gen_s), "s");
    report.add("setup.oracle_s", median(oracle_s), "s");
    report.add("setup.storage_ctor_s", median(ctor_s), "s");
    report.add("setup.warmup_solve_s", warmup_s, "s");
    report.add("trace.layer_sum_frac",
               ratio(static_cast<double>(times.sum_ns()), ns_wall), "ratio");
    report.add("trace.overhead_frac", median(traced4) / median(wall4) - 1.0,
               "ratio");
    report.add("trace.exact_frac",
               1.0 - ratio(static_cast<double>(traced_failed),
                           static_cast<double>(traced_solves)),
               "ratio");
  }
  report.print();
  return 0;
}

// ------------------------------------------------------------ selftest

/// Checks of the timing decorator itself, per workload:
///   * at P=1 the schedule is deterministic, so a traced and an untraced
///     solve give identical results and identical storage counters;
///   * the decorator's own push/pop tallies equal the storage's counters;
///   * a traced P=4 solve stays oracle-exact with a balanced ledger, and
///     its five layer sums cover the run: layer_sum_frac in [0.9, 1.1].
template <typename W>
bool selftest_workload(const char* name, W& w, std::uint64_t seed) {
  w.generate(seed);
  w.compute_oracle();
  const std::uint64_t storage_seed = mix(seed ^ 0x5707);
  bool ok = true;
  auto expect = [&](bool cond, const char* what) {
    std::printf("%s %s: %s\n", cond ? "PASS" : "FAIL", name, what);
    ok = ok && cond;
  };

  const Solve plain = solve(w, 1, false, storage_seed);
  const Solve timed = solve(w, 1, true, storage_seed);
  expect(plain.exact && timed.exact,
         "P=1 traced and untraced solves match the oracle");
  expect(plain.totals.v == timed.totals.v &&
             plain.run.useful == timed.run.useful,
         "P=1 traced counters == untraced");

  const Solve t = solve(w, kPlaces, true, storage_seed);
  expect(t.exact, "P=4 traced solve matches oracle, ledger balances");
  expect(t.times.pushes == t.totals.get(Counter::tasks_spawned),
         "decorator pushes == tasks_spawned");
  expect(t.times.pop_hits == t.totals.get(Counter::tasks_executed),
         "decorator pop hits == tasks_executed");
  expect(t.times.pop_misses == t.totals.get(Counter::pop_failures),
         "decorator pop misses == pop_failures");
  const double frac =
      ratio(static_cast<double>(t.times.sum_ns()),
            static_cast<double>(kPlaces) * t.run.runner_seconds * 1e9);
  std::printf("# %s: layer_sum_frac %.4f\n", name, frac);
  expect(frac >= 0.9 && frac <= 1.1, "P=4 layer_sum_frac in [0.9, 1.1]");
  return ok;
}

// ------------------------------------------------------ workload table

SsspWorkload sssp_sparse() {
  constexpr Graph::node_t n = 1u << 18;
  return SsspWorkload(n, 16.0 / static_cast<double>(n - 1));
}

DesWorkload des_phold() {
  DesParams p;
  p.chains = 4096;
  p.stations = 256;
  p.window = 8.0;
  p.horizon = 400.0;
  return DesWorkload(p);
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

void print_build() {
#if defined(KPS_FAILPOINTS)
  const bool failpoints = true;
#else
  const bool failpoints = false;
#endif
  std::printf("# build {\"compiler\": \"%s\", \"flags\": \"%s\", "
              "\"build_type\": \"%s\", \"failpoints\": %s, \"nproc\": %zu, "
              "\"places\": %zu}\n",
              KPS_BENCH_COMPILER, KPS_BENCH_FLAGS, KPS_BENCH_BUILD_TYPE,
              failpoints ? "true" : "false", usable_cpus(), kPlaces);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: kps_bench --workload "
               "{sssp_sparse|des_phold} --seed N --seconds S "
               "--trace {0|1}\n       kps_bench --selftest [--seed N]\n",
               why);
  std::exit(2);
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || *s == '-') return false;
  *out = v;
  return true;
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--selftest") {
      opt.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value after a flag");
    const char* value = argv[++i];
    std::uint64_t v = 0;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &opt.seed)) usage("--seed needs an integer");
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &v) || v < 1 || v > 600) {
        usage("--seconds needs an integer in [1, 600]");
      }
      opt.seconds = static_cast<double>(v);
    } else if (flag == "--trace") {
      if (!parse_u64(value, &v) || v > 1) usage("--trace needs 0 or 1");
      opt.trace = static_cast<int>(v);
    } else {
      usage("unknown flag");
    }
  }
  if (!opt.selftest && (opt.workload.empty() || opt.seconds == 0 ||
                        opt.trace < 0)) {
    usage("--workload, --seconds and --trace are required");
  }
  return opt;
}

}  // namespace
}  // namespace kps::perfbench

int main(int argc, char** argv) {
  using namespace kps::perfbench;
  const Options opt = parse(argc, argv);
  print_build();

  if (opt.selftest) {
    auto sparse = sssp_sparse();
    auto des = des_phold();
    bool ok = selftest_workload("sssp_sparse", sparse, opt.seed);
    ok = selftest_workload("des_phold", des, opt.seed) && ok;
    std::printf("%s\n", ok ? "selftest passed" : "selftest FAILED");
    return ok ? 0 : 1;
  }

  // Four worker threads on fewer CPUs would time the OS scheduler, not
  // the storages.
  if (usable_cpus() < kPlaces) {
    std::fprintf(stderr,
                 "error: %zu usable CPUs; the benchmark runs %zu worker "
                 "threads and refuses to oversubscribe\n",
                 usable_cpus(), kPlaces);
    return 3;
  }
  if (opt.workload == "sssp_sparse") {
    auto w = sssp_sparse();
    return run_workload(w, opt);
  }
  if (opt.workload == "des_phold") {
    auto w = des_phold();
    return run_workload(w, opt);
  }
  usage("unknown workload");
}

// The batch workloads: `series` (supervised run over an exported corpus)
// and `study` (world-driven run at one thread). Both analyse the same
// seeded window, so their per-month digests must agree.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/fault.h"
#include "core/longitudinal.h"
#include "io/loaders.h"
#include "io/stream/reader.h"
#include "net/date.h"
#include "obs/metrics.h"
#include "obs/stage_timer.h"
#include "scan/export.h"
#include "scan/world.h"
#include "workloads.h"

namespace offnet::e2e {
namespace {

constexpr const char* kDatasetFiles[] = {
    "relationships.txt", "organizations.txt", "prefix2as.txt",
    "certificates.tsv",  "hosts.tsv",         "headers.tsv"};

scan::WorldConfig world_config(std::uint64_t seed) {
  scan::WorldConfig config;
  config.seed = seed;
  config.topology_scale = kTopologyScale;
  return config;
}

std::string month_name(std::size_t t) {
  return net::study_snapshots()[t].to_string();
}

double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

double timing_seconds(const obs::RegistrySnapshot& snapshot,
                      const char* name) {
  auto it = snapshot.timings.find(name);
  return it == snapshot.timings.end() ? 0.0 : it->second.total_seconds;
}

double counter_value(const obs::RegistrySnapshot& snapshot,
                     const char* name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0.0
                                       : static_cast<double>(it->second);
}

/// The pipeline's own stage timers and funnel counters, read through the
/// core::metric_names constants. Returns pipeline/run's total seconds.
double add_pipeline_layers(const obs::RegistrySnapshot& snapshot,
                           Report& report) {
  namespace names = core::metric_names;
  struct Stage {
    const char* metric;
    const char* timer;
  };
  static constexpr Stage kStages[] = {
      {"core.pipeline.validate_certs_s", names::kTimerValidateCerts},
      {"core.pipeline.pass1_onnet_s", names::kTimerPass1Onnet},
      {"core.pipeline.merge_pass1_s", names::kTimerMergePass1Shard},
      {"core.pipeline.subset_rule_s", names::kTimerSubsetRule},
      {"core.pipeline.pass2_candidates_s", names::kTimerPass2Candidates},
      {"core.pipeline.merge_pass2_s", names::kTimerMergePass2Shard},
      {"core.pipeline.learn_headers_s", names::kTimerLearnHeaders},
      {"core.pipeline.confirm_s", names::kTimerConfirm},
  };
  const double run = timing_seconds(snapshot, names::kTimerRun);
  // delta_commit is zero here (no delta cache) but is a stage of run.
  double staged = timing_seconds(snapshot, names::kTimerDeltaCommit);
  for (const Stage& stage : kStages) {
    const double seconds = timing_seconds(snapshot, stage.timer);
    staged += seconds;
    report.add(stage.metric, seconds);
  }
  report.add("core.pipeline.run_s", run);
  report.add("core.pipeline.untimed_s", run - staged);
  const double candidates = counter_value(snapshot, names::kCandidateIps);
  const double confirmed = counter_value(snapshot, names::kConfirmedIps);
  report.add("core.pipeline.candidate_ips", candidates);
  report.add("core.pipeline.confirmed_ips", confirmed);
  report.add("core.pipeline.confirm_ratio",
             candidates > 0 ? confirmed / candidates : 0.0);
  return run;
}

void add_digests(const std::vector<core::SnapshotResult>& results,
                 const std::vector<std::vector<net::Asn>>& asn_tables,
                 const char* key, Report& report) {
  for (const core::SnapshotResult& result : results) {
    const std::size_t slot = result.snapshot - window_first();
    if (slot >= asn_tables.size()) {
      throw std::runtime_error("result outside the window");
    }
    report.add(key, month_name(result.snapshot) + "=" +
                        month_digest(result, asn_tables[slot]));
  }
}

/// Loads one exported month the way `offnet_cli series --stream` does.
io::Dataset load_month(const std::string& dir, net::YearMonth month,
                       std::size_t threads, io::LoadReport* report) {
  auto open = [&dir](const char* name) {
    std::ifstream in(dir + "/" + name, std::ios::binary);
    if (!in) throw io::LoadError(std::string("cannot read ") + name);
    return in;
  };
  io::stream::StreamOptions stream;
  stream.n_threads = static_cast<int>(threads);
  std::ifstream rel = open("relationships.txt");
  std::ifstream org = open("organizations.txt");
  std::ifstream pfx = open("prefix2as.txt");
  std::ifstream certs = open("certificates.tsv");
  std::ifstream hosts = open("hosts.tsv");
  io::Dataset dataset = io::load_dataset_stream(
      rel, org, pfx, certs, hosts, month, stream, io::ReadOptions{}, report);
  std::ifstream headers = open("headers.tsv");
  dataset.add_headers(headers, stream, io::ReadOptions{}, report);
  return dataset;
}

/// A bare LineReader pass over every file of the window: the floor any
/// ingest path pays.
void add_read_pass(const std::string& corpus, Report& report) {
  double read_s = 0.0;
  double bytes = 0.0;
  for (std::size_t t = window_first(); t <= window_last(); ++t) {
    for (const char* name : kDatasetFiles) {
      std::ifstream in(corpus + "/" + month_name(t) + "/" + name,
                       std::ios::binary);
      if (!in) throw std::runtime_error(std::string("cannot read ") + name);
      obs::Stopwatch watch;
      io::stream::LineReader reader(in);
      io::stream::Line line;
      std::size_t lines = 0;
      while (reader.next(line)) ++lines;
      read_s += watch.seconds();
      bytes += static_cast<double>(reader.bytes_consumed());
      if (lines == 0) throw std::runtime_error(std::string(name) + " is empty");
    }
  }
  report.add("io.read_s", read_s);
  report.add("io.bytes", bytes);
}

/// One month of the study path: OffnetPipeline::run over the world's
/// scan with the §6.2 Netflix carry, as LongitudinalRunner::run does it.
core::SnapshotResult study_month(const scan::World& world,
                                 const scan::ScanSnapshot& snapshot,
                                 std::size_t threads, obs::Registry* metrics,
                                 std::unordered_set<std::uint32_t>& netflix_ips) {
  core::PipelineOptions options;
  options.n_threads = threads;
  options.metrics = metrics;
  options.netflix_prior_ips = &netflix_ips;
  core::OffnetPipeline pipeline(world.topology(), world.ip2as(),
                                world.certs(), world.roots(),
                                core::standard_hg_inputs(), options);
  core::SnapshotResult result = pipeline.run(snapshot);
  if (const core::HgFootprint* netflix = result.find("Netflix")) {
    for (const auto& [ip, cert] : netflix->candidate_ip_certs) {
      netflix_ips.insert(ip.value());
    }
  }
  return result;
}

/// Exports the window and returns the time it took. With `reference`,
/// also runs the study path (the serial loop of LongitudinalRunner::run,
/// at nproc threads) on each exported scan, outside the timed part, and
/// adds its per-month digests: the series output check.
double export_window(const scan::World& world, const std::string& corpus,
                     Report* reference) {
  double seconds = 0.0;
  std::unordered_set<std::uint32_t> netflix_ips;
  std::vector<core::SnapshotResult> results;
  for (std::size_t t = window_first(); t <= window_last(); ++t) {
    obs::Stopwatch watch;
    const std::string dir = corpus + "/" + month_name(t);
    std::filesystem::create_directories(dir);
    const scan::ScanSnapshot snapshot =
        world.scan(t, scan::ScannerKind::kRapid7);
    scan::export_dataset_to_dir(world, snapshot, dir);
    seconds += watch.seconds();
    if (reference != nullptr) {
      results.push_back(study_month(world, snapshot, nproc(), nullptr,
                                    netflix_ips));
    }
  }
  if (reference != nullptr) {
    const std::vector<std::vector<net::Asn>> tables(
        kWindowMonths, asn_table(world.topology()));
    add_digests(results, tables, "reference", *reference);
  }
  return seconds;
}

/// One measured repetition of a batch workload.
struct BatchRep {
  Report report;
  double peak_rss_mb = 0.0;
};

BatchRep collect(Child child, const std::string& what) {
  ChildExit exit = child.wait();
  if (!exit.ok()) {
    throw std::runtime_error(what + " child failed (status " +
                             std::to_string(exit.status) + ")");
  }
  return {Report::parse(exit.stdout_text), exit.peak_rss_mb};
}

/// Reports the median of the set-up repetitions' times.
void record_setup(const std::vector<Report>& setups, Result& result) {
  std::vector<double> seconds;
  for (const Report& setup : setups) seconds.push_back(setup.number("setup_s"));
  result.note("setup_repeats", std::to_string(seconds.size()));
  result.set("setup_s", median(seconds));
}

/// End-to-end or per-layer summary of a batch workload's repetitions.
/// In a traced run reps = {untraced, traced}.
void summarize_batch(const Options& options, const std::vector<BatchRep>& reps,
                     const std::vector<std::string>& reference,
                     Result& result) {
  std::vector<double> rates, rss, month_us;
  std::uint64_t months = 0;
  std::uint64_t failed = 0;
  double records = 0.0;
  for (const BatchRep& rep : reps) {
    const Report& r = rep.report;
    const double wall = r.number("wall_s");
    records = r.number("records");
    rates.push_back(records / wall);
    rss.push_back(rep.peak_rss_mb);
    for (const std::string& us : r.all("month_us")) {
      month_us.push_back(std::stod(us));
    }
    months += static_cast<std::uint64_t>(r.number("months"));
    failed += static_cast<std::uint64_t>(r.number("months_failed"));
    result.check(r.all("digest") == reps.front().report.all("digest"),
                 "month digests differ between repetitions");
    result.check(r.all("digest").size() == kWindowMonths,
                 "a repetition did not finish every month of the window");
  }
  if (!reference.empty()) {  // series only
    result.check(reps.front().report.all("digest") == reference,
                 "series digests differ from the study path over the same "
                 "seed and window");
  }
  result.attempt(months, failed);
  result.note("repetitions", std::to_string(reps.size()));
  result.note("records_per_repetition",
              std::to_string(static_cast<std::uint64_t>(records)));
  for (const std::string& digest : reps.front().report.all("digest")) {
    result.note("digest", digest);
  }
  if (!options.trace) {
    result.set("throughput_per_s", median(rates));
    result.set("peak_rss_mb", median(rss));
    result.set("latency_p50_us", median(month_us));
    return;
  }
  const Report& traced = reps.back().report;
  for (const MetricSpec& spec : kPerLayer) {
    if (traced.has(spec.name)) result.set(spec.name, traced.number(spec.name));
  }
  result.set("failed_frac", months == 0 ? 0.0
                                        : static_cast<double>(failed) /
                                              static_cast<double>(months));
  result.set("trace.overhead_frac", traced.number("wall_s") /
                                        reps.front().report.number("wall_s") -
                                        1.0);
}

std::vector<BatchRep> measure(const Options& options,
                              const std::function<Child(bool)>& start) {
  std::vector<BatchRep> reps;
  if (options.trace) {
    reps.push_back(collect(start(false), options.workload));
    reps.push_back(collect(start(true), options.workload));
    return reps;
  }
  obs::Stopwatch measured;
  do {
    reps.push_back(collect(start(false), options.workload));
  } while (measured.seconds() < options.seconds);
  return reps;
}

// ---- study ----

/// One study repetition over `world`, in a process of its own. Untraced:
/// LongitudinalRunner::run at one thread, as every bench_fig* runs it.
/// Traced: the same serial loop spelled out, so World::scan, the cold
/// Ip2AsSeries::at and OffnetPipeline::run can be timed one by one.
Report study_repetition(const scan::World& world, bool trace) {
  const std::size_t first = window_first();
  const std::size_t last = window_last();
  // Counts io seam crossings: a study must never read or publish files.
  core::FaultInjector probe;
  core::ScopedSysFaultInjector seam(probe);
  obs::Registry registry;
  core::PipelineOptions options;
  options.n_threads = 1;
  options.metrics = &registry;
  std::vector<core::SnapshotResult> results;
  std::vector<std::int64_t> done_ns;
  Report report;

  const double cpu_before = self_cpu_seconds();
  const std::int64_t start_ns = obs::monotonic_nanoseconds();
  if (!trace) {
    core::LongitudinalRunner runner(world, scan::ScannerKind::kRapid7,
                                    options);
    results = runner.run(first, last, [&](const core::SnapshotResult&) {
      done_ns.push_back(obs::monotonic_nanoseconds());
    });
  } else {
    double scan_s = 0.0;
    double ip2as_s = 0.0;
    double records = 0.0;
    double prefixes = 0.0;
    std::unordered_set<std::uint32_t> netflix_ips;
    for (std::size_t t = first; t <= last; ++t) {
      obs::Stopwatch watch;
      const scan::ScanSnapshot snapshot =
          world.scan(t, scan::ScannerKind::kRapid7);
      scan_s += watch.seconds();
      records += static_cast<double>(snapshot.certs().size());
      watch.restart();
      (void)world.ip2as().at(t);  // cold: the window is not cached yet
      ip2as_s += watch.seconds();
      prefixes += static_cast<double>(world.ip2as().stats_at(t).accepted);
      results.push_back(
          study_month(world, snapshot, 1, &registry, netflix_ips));
      done_ns.push_back(obs::monotonic_nanoseconds());
    }
    report.add("scan.scan_s", scan_s);
    report.add("scan.records", records);
    report.add("bgp.ip2as_build_s", ip2as_s);
    report.add("bgp.prefixes_accepted", prefixes);
    const double run_s = add_pipeline_layers(registry.snapshot(), report);
    const double self_s = scan_s + ip2as_s + run_s;
    report.add("trace.layer_self_s", self_s);
    report.add("trace.remainder_s",
               seconds_between(start_ns, done_ns.back()) - self_s);
  }
  const std::int64_t end_ns = obs::monotonic_nanoseconds();
  report.add("wall_s", seconds_between(start_ns, end_ns));
  report.add("cpu_s", self_cpu_seconds() - cpu_before);
  report.add("records",
             counter_value(registry.snapshot(), core::metric_names::kRecords));
  std::int64_t previous = start_ns;
  for (std::int64_t done : done_ns) {
    report.add("month_us", static_cast<double>(done - previous) / 1e3);
    previous = done;
  }
  std::uint64_t failed = 0;
  for (const core::SnapshotResult& result : results) {
    if (result.health != core::SnapshotHealth::kComplete) ++failed;
  }
  report.add("months", static_cast<double>(results.size()));
  report.add("months_failed", static_cast<double>(failed));
  const std::vector<std::vector<net::Asn>> tables(
      kWindowMonths, asn_table(world.topology()));
  add_digests(results, tables, "digest", report);
  // Zero-work layers: no io reads, no file publishes, no checkpoints.
  const auto counters = registry.snapshot().counters;
  const bool io_idle =
      probe.occurrences(core::fault_stage::kStreamRead) == 0 &&
      probe.occurrences(core::fault_stage::kAtomicWrite) == 0 &&
      counters.count(core::metric_names::kCheckpointSaves) == 0;
  report.add("io_idle", io_idle ? "1" : "0");
  return report;
}

}  // namespace

// ---- series ----

Report supervised_run(const std::string& corpus,
                      const std::string& checkpoint_path, bool trace) {
  const std::size_t first = window_first();
  const std::size_t last = window_last();
  const auto months = net::study_snapshots();
  const std::size_t threads = nproc();
  Report report;
  if (trace) add_read_pass(corpus, report);

  std::vector<std::vector<net::Asn>> asn_tables(kWindowMonths);
  std::vector<std::int64_t> feed_ns(kWindowMonths, -1);
  std::vector<std::int64_t> durable_ns(kWindowMonths, -1);
  std::int64_t progress_ns = -1;  // checkpoint save in flight since then
  double checkpoint_s = 0.0;
  double load_s = 0.0;
  double load_rss_mb = 0.0;
  double lines_skipped = 0.0;
  auto checkpoint_done = [&](std::int64_t now) {
    if (progress_ns < 0) return;
    checkpoint_s += seconds_between(progress_ns, now);
    progress_ns = -1;
  };

  auto feed = [&](std::size_t t) {
    const std::int64_t now = obs::monotonic_nanoseconds();
    checkpoint_done(now);
    const std::size_t slot = t - first;
    if (slot > 0 && durable_ns[slot - 1] < 0) durable_ns[slot - 1] = now;
    if (feed_ns[slot] < 0) feed_ns[slot] = now;
    const double rss_before = trace ? self_peak_rss_mb() : 0.0;
    core::SnapshotFeed input;
    try {
      input.dataset = load_month(corpus + "/" + months[t].to_string(),
                                 months[t], threads, &input.report);
      asn_tables[slot] = asn_table(input.dataset->topology());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: unusable: %s\n",
                   months[t].to_string().c_str(), e.what());
      input.dataset.reset();
      input.corrupt = true;
    }
    if (trace) {
      load_s += seconds_between(now, obs::monotonic_nanoseconds());
      if (slot == 0) load_rss_mb = self_peak_rss_mb() - rss_before;
      lines_skipped += static_cast<double>(input.report.lines_skipped());
    }
    return input;
  };
  auto progress = [&](const core::SnapshotResult&) {
    progress_ns = obs::monotonic_nanoseconds();
  };

  obs::Registry registry;
  core::PipelineOptions options;
  options.n_threads = threads;
  options.metrics = &registry;
  core::LongitudinalRunner runner(options);
  core::SupervisorOptions supervisor;
  supervisor.checkpoint_path = checkpoint_path;

  const double cpu_before = self_cpu_seconds();
  const std::int64_t start_ns = obs::monotonic_nanoseconds();
  const std::vector<core::SnapshotResult> results =
      runner.run_supervised(feed, supervisor, first, last, progress);
  const std::int64_t end_ns = obs::monotonic_nanoseconds();
  const double cpu_s = self_cpu_seconds() - cpu_before;
  checkpoint_done(end_ns);
  const double wall_s = seconds_between(start_ns, end_ns);

  const obs::RegistrySnapshot metrics = registry.snapshot();
  report.add("wall_s", wall_s);
  report.add("cpu_s", cpu_s);
  report.add("records", counter_value(metrics, core::metric_names::kRecords));
  std::uint64_t failed = 0;
  for (const core::SnapshotResult& result : results) {
    if (result.health != core::SnapshotHealth::kComplete) ++failed;
  }
  report.add("months", static_cast<double>(results.size()));
  report.add("months_failed", static_cast<double>(failed));
  for (std::size_t slot = 0; slot < kWindowMonths; ++slot) {
    const std::int64_t durable = durable_ns[slot] < 0 ? end_ns
                                                      : durable_ns[slot];
    if (feed_ns[slot] >= 0) {
      report.add("month_us",
                 static_cast<double>(durable - feed_ns[slot]) / 1e3);
    }
  }
  add_digests(results, asn_tables, "digest", report);
  if (trace) {
    report.add("io.load_s", load_s);
    report.add("io.load_rss_mb", load_rss_mb);
    report.add("io.lines_skipped", lines_skipped);
    const double run_s = add_pipeline_layers(metrics, report);
    report.add("core.checkpoint_s", checkpoint_s);
    report.add("core.checkpoint_bytes",
               counter_value(metrics, core::metric_names::kCheckpointBytes));
    const double self_s = load_s + run_s + checkpoint_s;
    report.add("core.supervisor_other_s", wall_s - self_s);
    report.add("trace.layer_self_s", self_s);
    report.add("trace.remainder_s", wall_s - self_s);
  }
  return report;
}

void export_world(std::uint64_t seed, const std::string& corpus) {
  export_window(scan::World(world_config(seed)), corpus, nullptr);
}

void run_series(const Options& options, Result& result) {
  const std::string corpus = options.work_dir + "/corpus";
  const int repeats = options.trace ? 1 : kExportSetupRepeats;
  std::vector<Report> setups;
  for (int i = 0; i < repeats; ++i) {
    const bool last = i + 1 == repeats;
    Child child = Child::fork_call([&] {
      Report report;
      obs::Stopwatch watch;
      const scan::World world(world_config(options.seed));
      const double world_s = watch.seconds();
      const double export_s =
          export_window(world, corpus, last ? &report : nullptr);
      report.add("setup_s", world_s + export_s);
      return report;
    });
    setups.push_back(collect(std::move(child), "set-up").report);
  }
  record_setup(setups, result);
  result.note("corpus_bytes", std::to_string(directory_bytes(corpus)));

  // The set-ups ran in children, so this process holds no world: each
  // repetition forks from a parent with nothing warm.
  const std::string checkpoint = options.work_dir + "/series.ckpt";
  const std::vector<BatchRep> reps =
      measure(options, [&](bool trace) {
        return Child::fork_call(
            [&] { return supervised_run(corpus, checkpoint, trace); });
      });
  const std::vector<std::string> reference = setups.back().all("reference");
  result.check(reference.size() == kWindowMonths,
               "set-up produced no study-path reference digests");
  summarize_batch(options, reps, reference, result);
}

void run_study(const Options& options, Result& result) {
  const int repeats = options.trace ? 1 : kWorldSetupRepeats;
  std::vector<Report> setups;
  // All but the last set-up run in throwaway children; the last builds
  // the world the measured children fork from, so their heaps start from
  // one clean world with cold caches.
  for (int i = 0; i + 1 < repeats; ++i) {
    Child child = Child::fork_call([&] {
      Report report;
      obs::Stopwatch watch;
      const scan::World world(world_config(options.seed));
      report.add("setup_s", watch.seconds());
      return report;
    });
    setups.push_back(collect(std::move(child), "set-up").report);
  }
  obs::Stopwatch watch;
  const auto world =
      std::make_unique<const scan::World>(world_config(options.seed));
  setups.emplace_back().add("setup_s", watch.seconds());
  record_setup(setups, result);

  const std::vector<BatchRep> reps =
      measure(options, [&](bool trace) {
        return Child::fork_call(
            [&] { return study_repetition(*world, trace); });
      });
  for (const BatchRep& rep : reps) {
    result.check(rep.report.get("io_idle") == "1",
                 "study touched the io or checkpoint layer");
  }
  summarize_batch(options, reps, {}, result);
}

}  // namespace offnet::e2e

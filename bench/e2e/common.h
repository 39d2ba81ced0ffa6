#pragma once

// Shared plumbing of the end-to-end benchmark (bench/e2e/README.md):
// the metric tables, run options, order statistics, the result digest,
// child-process control, and the result printer.

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "net/asn.h"

namespace offnet::e2e {

/// One benchmark metric as printed: name, unit, and which run prints it
/// (`--trace 0` prints the end-to-end table, `--trace 1` the per-layer
/// table). BENCHMARK.json at the repository root lists the same names;
/// run.py refuses a result whose names differ from it.
struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
    {"latency_p50_us", "us"},
};

inline constexpr MetricSpec kPerLayer[] = {
    {"cpu_s", "s"},
    {"scan.scan_s", "s"},
    {"scan.records", "count"},
    {"bgp.ip2as_build_s", "s"},
    {"bgp.prefixes_accepted", "count"},
    {"io.read_s", "s"},
    {"io.load_s", "s"},
    {"io.load_rss_mb", "MB"},
    {"io.bytes", "B"},
    {"io.lines_skipped", "count"},
    {"core.pipeline.run_s", "s"},
    {"core.pipeline.validate_certs_s", "s"},
    {"core.pipeline.pass1_onnet_s", "s"},
    {"core.pipeline.merge_pass1_s", "s"},
    {"core.pipeline.subset_rule_s", "s"},
    {"core.pipeline.pass2_candidates_s", "s"},
    {"core.pipeline.merge_pass2_s", "s"},
    {"core.pipeline.learn_headers_s", "s"},
    {"core.pipeline.confirm_s", "s"},
    {"core.pipeline.untimed_s", "s"},
    {"core.pipeline.candidate_ips", "count"},
    {"core.pipeline.confirmed_ips", "count"},
    {"core.pipeline.confirm_ratio", "ratio"},
    {"core.checkpoint_s", "s"},
    {"core.checkpoint_bytes", "B"},
    {"core.supervisor_other_s", "s"},
    {"svc.connect_us", "us"},
    {"svc.ping_p50_us", "us"},
    {"svc.footprint_p50_us", "us"},
    {"svc.coverage_p50_us", "us"},
    {"svc.cohost_p50_us", "us"},
    {"svc.p99_us", "us"},
    {"svc.snapshot_load_s", "s"},
    {"svc.reload_s", "s"},
    {"svc.reload_p99_us", "us"},
    {"svc.reload_peak_rss_mb", "MB"},
    {"svc.shed_busy", "count"},
    {"svc.shed_deadline", "count"},
    {"svc.responses_err", "count"},
    {"svc.generator_lag_us", "us"},
    {"failed_frac", "ratio"},
    {"trace.layer_self_s", "s"},
    {"trace.remainder_s", "s"},
    {"trace.overhead_frac", "ratio"},
};

/// Command-line options of one benchmark run.
struct Options {
  std::string workload;  // series | study | query
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time per run
  bool trace = false;     // print the per-layer table instead
  std::string work_dir;   // scratch space inside the checkout
  std::string self_path;  // this binary; offnetd is built beside it
};

/// Set-up repetitions of an untraced run, reported as their median (a
/// traced run sets up once): five where set-up is one world build
/// (study, a fraction of a second), three where it also exports the
/// window (series, query).
inline constexpr int kWorldSetupRepeats = 5;
inline constexpr int kExportSetupRepeats = 3;

/// AS-count multiplier of every benchmark world (scan::WorldConfig::
/// topology_scale). A tenth of the paper's AS counts keeps the scan
/// records per month near the paper's scale (≈0.37M of full scale's
/// ≈0.53M: background IPs do not scale with it) while a study month
/// takes about a second instead of five, so a run holds ten or more
/// repetitions and reports their median.
inline constexpr double kTopologyScale = 0.1;

/// The study window every workload runs over: the last kWindowMonths
/// quarterly snapshots, the largest of the study (≈0.37M scan records
/// each at kTopologyScale).
inline constexpr std::size_t kWindowMonths = 2;
std::size_t window_first();
std::size_t window_last();
/// "2021-01..2021-04".
std::string window_label();

/// CPUs this process may run on (sched_getaffinity), at least 1.
std::size_t nproc();

/// Order statistics over a copy of `values` (0 when empty). quantile()
/// uses the nearest-rank definition, q in [0, 1].
double median(std::vector<double> values);
double quantile(std::vector<double> values, double q);

/// User+system CPU seconds and peak RSS (MiB) of this process so far.
double self_cpu_seconds();
double self_peak_rss_mb();

/// The outcome digest of one month: for every Hypergiant, its sorted
/// confirmed off-net IPs and the sorted ASNs of its confirmed off-net
/// ASes (OR rule). Keyed by ASN, not by AsId, so results computed over
/// the simulated world and over a loaded export compare equal.
/// `asn_of_id[id]` maps the result's AsIds to ASNs.
std::string month_digest(const core::SnapshotResult& result,
                         const std::vector<net::Asn>& asn_of_id);

/// Child-process protocol: a child writes "key value" lines to its
/// stdout; the parent reads them all back after the child exits.
class Report {
 public:
  void add(std::string key, std::string value);
  void add(std::string key, double value);
  std::string text() const;
  static Report parse(std::string_view text);

  bool has(std::string_view key) const;
  /// The first value for `key`; throws std::runtime_error when absent.
  const std::string& get(std::string_view key) const;
  double number(std::string_view key) const;
  /// Every value for `key`, in order.
  std::vector<std::string> all(std::string_view key) const;

 private:
  std::vector<std::pair<std::string, std::string>> lines_;
};

/// How a child process ended and what it used.
struct ChildExit {
  int status = 0;          // raw wait status
  double cpu_s = 0.0;      // user + system CPU
  double peak_rss_mb = 0.0;
  std::string stdout_text;  // everything the child wrote to stdout
  bool ok() const;          // exited normally with status 0
};

/// A running child process. The destructor kills (SIGKILL) and reaps a
/// child that was never waited for, so no path leaves one behind.
class Child {
 public:
  /// fork + execv(argv[0], argv), stdout captured through a pipe;
  /// stderr is inherited.
  static Child exec(const std::vector<std::string>& argv);
  /// fork; the child runs `body`, writes its Report to the pipe, and
  /// _exits (status 1 when `body` throws). The parent must have no other
  /// threads running.
  static Child fork_call(const std::function<Report()>& body);

  Child(Child&& other) noexcept;
  Child& operator=(Child&&) = delete;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;
  ~Child();

  /// Reads one line of the child's stdout (without the newline); false
  /// at EOF. For handshakes such as offnetd's READY line.
  bool read_line(std::string& line);
  /// Sends `signal` to the child.
  void signal(int signal) const;
  /// Drains stdout, reaps the child, and returns its usage.
  ChildExit wait();

 private:
  Child(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string pending_;  // read but not yet returned by read_line
};

/// Accumulates one run's metrics and checks, and prints the result.
class Result {
 public:
  explicit Result(const Options& options) : options_(options) {}

  void set(std::string_view name, double value);
  /// Context recorded beside the metrics (nproc, compiler, window...).
  void note(std::string key, std::string value);
  /// Records a failed output check; the run then reports correct=false.
  void check(bool ok, const std::string& what);
  void attempt(std::uint64_t attempted, std::uint64_t failed);

  bool correct() const { return problems_.empty(); }

  /// Prints every metric of the run's table ("name value unit"), the
  /// context notes and failed checks, then the one-line JSON result as
  /// the last line of stdout; publishes the same as a result file
  /// under the work directory. Metrics never set print as 0 in the
  /// per-layer table (a layer that did no work); in the end-to-end
  /// table a missing or non-positive metric is a failed check.
  void print();

 private:
  const Options& options_;
  std::map<std::string, double, std::less<>> values_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Build facts recorded with every result; throws when the binary was
/// built with a sanitizer (timings would be meaningless).
std::string compiler_version();
std::string build_type();
void refuse_sanitized_build();

/// Total size of the regular files under `dir`, recursively.
std::uintmax_t directory_bytes(const std::string& dir);

/// The ASN of every AsId of `topology`.
std::vector<net::Asn> asn_table(const topo::Topology& topology);

}  // namespace offnet::e2e

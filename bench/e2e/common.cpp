#include "common.h"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "io/atomic_file.h"
#include "net/date.h"

#ifndef OFFNET_E2E_BUILD_TYPE
#define OFFNET_E2E_BUILD_TYPE "unknown"
#endif
#ifndef OFFNET_E2E_CXX_FLAGS
#define OFFNET_E2E_CXX_FLAGS ""
#endif

namespace offnet::e2e {

std::size_t window_first() { return net::snapshot_count() - kWindowMonths; }
std::size_t window_last() { return net::snapshot_count() - 1; }

std::string window_label() {
  const auto months = net::study_snapshots();
  return months[window_first()].to_string() + ".." +
         months[window_last()].to_string();
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

namespace {

double timeval_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

std::string format_number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) return "0";
  return std::string(buffer, end);
}

}  // namespace

double self_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return timeval_seconds(usage.ru_utime) + timeval_seconds(usage.ru_stime);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

/// FNV-1a 64, fed length-delimited fields so ("ab","c") != ("a","bc").
class Fnv {
 public:
  void add(std::string_view bytes) {
    for (unsigned char byte : bytes) mix(byte);
    add_u64(bytes.size());
  }
  void add_u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) mix((value >> (8 * i)) & 0xff);
  }
  std::string hex() const {
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016llx",
                  static_cast<unsigned long long>(state_));
    return buffer;
  }

 private:
  void mix(std::uint64_t byte) {
    state_ ^= byte;
    state_ *= 0x100000001b3ull;
  }
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

}  // namespace

std::string month_digest(const core::SnapshotResult& result,
                         const std::vector<net::Asn>& asn_of_id) {
  Fnv fnv;
  fnv.add_u64(result.snapshot);
  fnv.add(core::to_string(result.health));
  for (const core::HgFootprint& footprint : result.per_hg) {
    fnv.add(footprint.name);
    fnv.add_u64(footprint.confirmed_ips);
    std::vector<std::uint32_t> ips;
    ips.reserve(footprint.confirmed_ip_list.size());
    for (const net::IPv4& ip : footprint.confirmed_ip_list) {
      ips.push_back(ip.value());
    }
    std::sort(ips.begin(), ips.end());
    fnv.add_u64(ips.size());
    for (std::uint32_t ip : ips) fnv.add_u64(ip);
    std::vector<net::Asn> asns;
    asns.reserve(footprint.confirmed_ases().size());
    for (topo::AsId id : footprint.confirmed_ases()) {
      if (id >= asn_of_id.size()) {
        throw std::runtime_error("confirmed AS id outside the topology");
      }
      asns.push_back(asn_of_id[id]);
    }
    std::sort(asns.begin(), asns.end());
    fnv.add_u64(asns.size());
    for (net::Asn asn : asns) fnv.add_u64(asn);
  }
  return fnv.hex();
}

std::uintmax_t directory_bytes(const std::string& dir) {
  std::uintmax_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

std::vector<net::Asn> asn_table(const topo::Topology& topology) {
  std::vector<net::Asn> out;
  out.reserve(topology.as_count());
  for (const topo::AsRecord& record : topology.ases()) {
    out.push_back(record.asn);
  }
  return out;
}

// ---- Report ----

void Report::add(std::string key, std::string value) {
  lines_.emplace_back(std::move(key), std::move(value));
}

void Report::add(std::string key, double value) {
  add(std::move(key), format_number(value));
}

std::string Report::text() const {
  std::string out;
  for (const auto& [key, value] : lines_) out += key + " " + value + "\n";
  return out;
}

Report Report::parse(std::string_view text) {
  Report report;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    text = eol == std::string_view::npos ? std::string_view()
                                         : text.substr(eol + 1);
    const std::size_t space = line.find(' ');
    if (line.empty() || space == std::string_view::npos) continue;
    report.add(std::string(line.substr(0, space)),
               std::string(line.substr(space + 1)));
  }
  return report;
}

bool Report::has(std::string_view key) const {
  for (const auto& line : lines_) {
    if (line.first == key) return true;
  }
  return false;
}

const std::string& Report::get(std::string_view key) const {
  for (const auto& line : lines_) {
    if (line.first == key) return line.second;
  }
  throw std::runtime_error("child report lacks '" + std::string(key) + "'");
}

double Report::number(std::string_view key) const {
  const std::string& text = get(key);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
    throw std::runtime_error("child report: '" + std::string(key) +
                             "' is not a number: " + text);
  }
  return value;
}

std::vector<std::string> Report::all(std::string_view key) const {
  std::vector<std::string> out;
  for (const auto& line : lines_) {
    if (line.first == key) out.push_back(line.second);
  }
  return out;
}

// ---- Child processes ----

bool ChildExit::ok() const {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

namespace {

/// pipe2 with close-on-exec; the child dup2s its end onto stdout.
void make_pipe(int fds[2]) {
  if (pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
}

/// In a freshly forked child: die with the parent, so a benchmark that is
/// killed never leaves an offnetd or a measured child running.
void die_with_parent(pid_t parent) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (getppid() != parent) _exit(1);  // the parent is already gone
}

bool write_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

}  // namespace

Child Child::exec(const std::vector<std::string>& argv) {
  int fds[2];
  make_pipe(fds);
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    die_with_parent(parent);
    dup2(fds[1], STDOUT_FILENO);
    execv(args[0], args.data());
    std::fprintf(stderr, "exec %s: %s\n", args[0], std::strerror(errno));
    _exit(127);
  }
  ::close(fds[1]);
  return Child(pid, fds[0]);
}

Child Child::fork_call(const std::function<Report()>& body) {
  int fds[2];
  make_pipe(fds);
  std::fflush(nullptr);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    die_with_parent(parent);
    ::close(fds[0]);
    int code = 0;
    try {
      code = write_all(fds[1], body().text()) ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "child: %s\n", e.what());
      code = 1;
    }
    std::fflush(nullptr);
    _exit(code);  // skip the parent's atexit handlers and destructors
  }
  ::close(fds[1]);
  return Child(pid, fds[0]);
}

Child::Child(Child&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      out_fd_(std::exchange(other.out_fd_, -1)),
      pending_(std::move(other.pending_)) {}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
  if (out_fd_ >= 0) ::close(out_fd_);
}

bool Child::read_line(std::string& line) {
  for (;;) {
    const std::size_t eol = pending_.find('\n');
    if (eol != std::string::npos) {
      line = pending_.substr(0, eol);
      pending_.erase(0, eol + 1);
      return true;
    }
    char buffer[4096];
    const ssize_t n = ::read(out_fd_, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    pending_.append(buffer, static_cast<std::size_t>(n));
  }
}

void Child::signal(int signal) const {
  if (pid_ > 0) ::kill(pid_, signal);
}

ChildExit Child::wait() {
  ChildExit out;
  out.stdout_text = std::move(pending_);
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::read(out_fd_, buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.stdout_text.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(out_fd_);
  out_fd_ = -1;
  rusage usage{};
  while (wait4(pid_, &out.status, 0, &usage) < 0) {
    if (errno != EINTR) {
      throw std::runtime_error(std::string("wait4: ") +
                               std::strerror(errno));
    }
  }
  pid_ = -1;
  out.cpu_s = timeval_seconds(usage.ru_utime) +
              timeval_seconds(usage.ru_stime);
  out.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return out;
}

// ---- Result ----

void Result::set(std::string_view name, double value) {
  values_[std::string(name)] = value;
}

void Result::note(std::string key, std::string value) {
  notes_.emplace_back(std::move(key), std::move(value));
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) problems_.push_back(what);
}

void Result::attempt(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Result::print() {
  const bool trace = options_.trace;
  std::string metrics_json;
  std::string table;
  auto emit = [&](const MetricSpec& spec) {
    auto it = values_.find(spec.name);
    double value = it == values_.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      check(false, std::string(spec.name) + " is not finite");
      value = 0.0;
    }
    if (!trace && !(value > 0.0)) {
      check(false, std::string(spec.name) + " was not measured");
    }
    const std::string number = format_number(value);
    table += std::string(spec.name) + " " + number + " " + spec.unit + "\n";
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += "\"" + std::string(spec.name) + "\": {\"value\": " +
                    number + ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  if (attempted_ == 0) check(false, "no operation was attempted");

  std::string notes;
  for (const auto& [key, value] : notes_) {
    notes += "# " + key + ": " + value + "\n";
  }
  for (const std::string& problem : problems_) {
    notes += "# CHECK FAILED: " + problem + "\n";
  }
  const std::string json =
      std::string("{\"correct\": ") + (correct() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(1, attempted_)) +
      ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {" +
      metrics_json + "}}";

  // The result file keeps the full record (context + table + JSON);
  // stdout ends with the JSON line the harness parses.
  std::filesystem::create_directories(options_.work_dir + "/results");
  io::AtomicFile::write(options_.work_dir + "/results/" + options_.workload +
                            "-seed" + std::to_string(options_.seed) +
                            (trace ? "-trace" : "") + ".txt",
                        notes + table + json + "\n");
  std::fputs(notes.c_str(), stdout);
  std::fputs(table.c_str(), stdout);
  std::fputs((json + "\n").c_str(), stdout);
  std::fflush(stdout);
}

// ---- Build facts ----

std::string compiler_version() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string build_type() { return OFFNET_E2E_BUILD_TYPE; }

void refuse_sanitized_build() {
  bool sanitized = std::string_view(OFFNET_E2E_CXX_FLAGS).find("-fsanitize") !=
                   std::string_view::npos;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
  if (sanitized) {
    throw std::runtime_error(
        "refusing to benchmark a sanitizer build: its timings measure the "
        "instrumentation, not the program");
  }
}

}  // namespace offnet::e2e

// The `query` workload: the real offnetd binary serving the checkpoint of
// a supervised run. A pipelined closed loop on persistent connections
// gives throughput; an open loop at a fixed offered rate, one fresh
// connection per request (like `offnet_cli query`), run beside it with a
// periodic RELOAD, gives latency. Every answer is checked, and the
// client's tallies are reconciled against offnetd's own counters.

#include <array>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "net/date.h"
#include "net/rng.h"
#include "obs/stage_timer.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/service_snapshot.h"
#include "workloads.h"

namespace offnet::e2e {
namespace {

/// Share of --seconds spent serving with RELOADs; a reload-free phase
/// gets the rest.
constexpr double kServeShare = 0.85;
/// Offered rate of the open loop, requests per second: a light load,
/// under 2 % of the closed-loop capacity on 4 vCPUs. Fixed, so the open
/// loop does the same work on every commit.
constexpr double kOpenRatePerSecond = 2000.0;
/// Closed-loop throughput is taken per window of this length.
constexpr double kClosedWindowSeconds = 0.25;
/// The open loop is cut into periods of this length (1000 requests) and
/// its tail latency is taken per period, median over periods, so one
/// stall of a shared machine moves one period only. With reloads, one
/// RELOAD is sent at the start of every period: a stress setting, not a
/// production rate. A reload takes under half a period, so reloads never
/// overlap and each period also holds reload-free reads.
constexpr double kPeriodSeconds = 0.5;
/// Requests in flight on each closed-loop connection.
constexpr std::size_t kPipelineDepth = 16;
/// Client-side bound on one exchange; a slower answer counts as lost.
constexpr int kClientTimeoutMs = 2000;
/// The verbs of the request mix, in equal shares: bench_offnetd's mix
/// (PING, INFO, FOOTPRINT, COVERAGE, COHOST) plus the two remaining
/// read-only verbs, MONTHS and HGS.
constexpr std::array<std::string_view, 7> kVerbs = {
    "PING", "INFO", "MONTHS", "HGS", "FOOTPRINT", "COVERAGE", "COHOST"};
/// Requests of each verb in the seeded mix.
constexpr std::size_t kPerVerb = 36;

/// Closed-loop connections: half the CPUs, so the client threads and
/// the workers serving them fit on the machine together. Each holds an
/// offnetd worker for the whole phase; kSpareWorkers more serve the open
/// loop's fresh connections and the RELOADs.
std::size_t connections() { return std::max<std::size_t>(1, nproc() / 2); }
constexpr std::size_t kSpareWorkers = 2;

/// One request of the mix and the answer every OK response must repeat.
struct Query {
  std::string line;
  std::string verb;
  std::string expected;  // filled from the reference pass
};

/// Everything one client thread saw.
struct Tally {
  std::uint64_t attempts = 0;
  std::uint64_t ok = 0;
  std::uint64_t err = 0;
  std::uint64_t busy_queue = 0;     // BUSY queue-full (connection shed)
  std::uint64_t busy_deadline = 0;  // any other BUSY (deadline shed)
  std::uint64_t lost = 0;           // no answer: refused, closed, timeout
  std::uint64_t wrong = 0;          // OK, but not the reference answer
  std::vector<std::string> wrong_samples;

  void merge(const Tally& other) {
    attempts += other.attempts;
    ok += other.ok;
    err += other.err;
    busy_queue += other.busy_queue;
    busy_deadline += other.busy_deadline;
    lost += other.lost;
    wrong += other.wrong;
    for (const std::string& sample : other.wrong_samples) {
      if (wrong_samples.size() < 3) wrong_samples.push_back(sample);
    }
  }
  std::uint64_t failed() const {
    return err + busy_queue + busy_deadline + lost + wrong;
  }
};

/// INFO carries the snapshot version, which every RELOAD bumps; compare
/// it without that token.
std::string comparable(std::string_view verb, const std::string& response) {
  if (verb != "INFO") return response;
  const std::size_t start = response.find("version=");
  if (start == std::string::npos) return response;
  const std::size_t end = response.find(' ', start);
  return response.substr(0, start) +
         (end == std::string::npos ? "" : response.substr(end + 1));
}

/// Classifies one exchange into `tally`; returns whether it succeeded.
bool classify(const Query& query, const std::optional<std::string>& response,
              Tally& tally) {
  ++tally.attempts;
  if (!response) {
    ++tally.lost;
    return false;
  }
  if (response->rfind("OK", 0) == 0) {
    ++tally.ok;
    if (!query.expected.empty() &&
        comparable(query.verb, *response) !=
            comparable(query.verb, query.expected)) {
      ++tally.wrong;
      if (tally.wrong_samples.size() < 3) {
        tally.wrong_samples.push_back(query.line + " -> " + *response);
      }
      return false;
    }
    return true;
  }
  if (response->rfind("BUSY queue-full", 0) == 0) {
    ++tally.busy_queue;
  } else if (response->rfind("BUSY", 0) == 0) {
    ++tally.busy_deadline;
  } else {
    ++tally.err;
  }
  return false;
}

/// Sends one request on a fresh connection. `connect_us` (optional)
/// receives the connect time.
std::optional<std::string> one_shot(const svc::Endpoint& endpoint,
                                    const std::string& line,
                                    double* connect_us) {
  try {
    obs::Stopwatch watch;
    svc::Client client(endpoint, kClientTimeoutMs);
    if (connect_us != nullptr) *connect_us = watch.seconds() * 1e6;
    return client.request(line);
  } catch (const svc::SocketError&) {
    return std::nullopt;
  }
}

/// The seeded request mix: kPerVerb requests of each of kVerbs over the
/// checkpoint's months, hypergiants and confirmed ASes. The seed picks
/// only the arguments and the order, so every seed offers the same number
/// of requests per verb.
std::vector<Query> request_mix(std::uint64_t seed,
                               const svc::ServiceSnapshot& snapshot) {
  net::Rng rng = net::Rng(seed).fork("query-mix");
  std::vector<std::string> months;
  std::set<std::uint32_t> ases;
  for (const svc::ServiceSnapshot::Month& month : snapshot.months()) {
    if (!month.usable) continue;
    months.push_back(month.month.to_string());
    for (const svc::ServiceSnapshot::Cell& cell : month.per_hg) {
      ases.insert(cell.confirmed_ases.begin(), cell.confirmed_ases.end());
    }
  }
  const std::vector<std::string>& hgs = snapshot.hypergiants();
  if (months.empty() || ases.empty() || hgs.empty()) {
    throw std::runtime_error("checkpoint has nothing to query");
  }
  const std::vector<std::uint32_t> as_list(ases.begin(), ases.end());
  std::vector<Query> mix;
  for (const std::string_view verb : kVerbs) {
    for (std::size_t i = 0; i < kPerVerb; ++i) {
      const std::string month = months[rng.index(months.size())];
      Query query;
      query.verb = query.line = std::string(verb);
      if (verb == "FOOTPRINT") {
        query.line += " " + month + " " + hgs[rng.index(hgs.size())];
      } else if (verb == "COVERAGE") {
        query.line += " " + month;
      } else if (verb == "COHOST") {
        query.line += " " + month + " " +
                      std::to_string(as_list[rng.index(as_list.size())]);
      }
      mix.push_back(std::move(query));
    }
  }
  for (std::size_t i = mix.size() - 1; i > 0; --i) {
    std::swap(mix[i], mix[rng.index(i + 1)]);
  }
  return mix;
}

/// The field `key=` of a response, or "" when absent.
std::string field(const std::string& response, const std::string& key) {
  const std::size_t start = response.find(" " + key + "=");
  if (start == std::string::npos) return "";
  const std::size_t begin = start + key.size() + 2;
  return response.substr(begin, response.find(' ', begin) - begin);
}

/// Checks a reference answer against the checkpoint loaded in-process:
/// FOOTPRINT counts, COVERAGE totals and COHOST counts must match the
/// supervised run's results.
bool answer_matches(const svc::ServiceSnapshot& snapshot, const Query& query,
                    const std::string& response) {
  if (response.rfind("OK", 0) != 0) return false;
  std::istringstream words(query.line);
  std::string verb, month_text, arg;
  words >> verb >> month_text >> arg;
  if (verb == "PING") return response == "OK pong";
  if (verb != "FOOTPRINT" && verb != "COVERAGE" && verb != "COHOST") {
    return true;
  }
  const std::optional<net::YearMonth> month =
      net::YearMonth::parse(month_text);
  if (!month) return false;
  const std::size_t m = snapshot.month_index(*month);
  if (m == svc::ServiceSnapshot::npos) return false;
  if (verb == "FOOTPRINT") {
    const svc::ServiceSnapshot::Cell* cell =
        snapshot.cell(m, snapshot.hypergiant_index(arg));
    return cell != nullptr &&
           field(response, "confirmed_ips") ==
               std::to_string(cell->confirmed_ips) &&
           field(response, "confirmed_ases") ==
               std::to_string(cell->confirmed_ases.size());
  }
  if (verb == "COVERAGE") {
    std::uint64_t ips = 0;
    std::set<std::uint32_t> ases;
    for (const svc::ServiceSnapshot::Cell& cell :
         snapshot.months()[m].per_hg) {
      ips += cell.confirmed_ips;
      ases.insert(cell.confirmed_ases.begin(), cell.confirmed_ases.end());
    }
    return field(response, "confirmed_ips") == std::to_string(ips) &&
           field(response, "confirmed_ases") == std::to_string(ases.size());
  }
  const std::vector<std::string> hgs = snapshot.hypergiants_in_as(
      m, static_cast<std::uint32_t>(std::stoul(arg)));
  return field(response, "count") == std::to_string(hgs.size());
}

/// offnetd's counters, read from its --metrics-out file after drain.
struct ServerCounters {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t err = 0;
  std::uint64_t shed_busy = 0;
  std::uint64_t shed_deadline = 0;
  bool pipeline_idle = true;  // no pipeline/load/checkpoint metrics

  void merge(const ServerCounters& other) {
    requests += other.requests;
    ok += other.ok;
    err += other.err;
    shed_busy += other.shed_busy;
    shed_deadline += other.shed_deadline;
    pipeline_idle = pipeline_idle && other.pipeline_idle;
  }
};

std::uint64_t json_counter(const std::string& json, const char* name) {
  const std::string key = "\"" + std::string(name) + "\": ";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + key.size()));
}

/// One offnetd child serving the checkpoint on a Unix socket.
class Daemon {
 public:
  Daemon(const Options& options, const std::string& checkpoint,
         const std::string& name)
      : socket_(options.work_dir + "/" + name + ".sock"),
        metrics_path_(options.work_dir + "/" + name + "-metrics.json"),
        child_(start(options, checkpoint)) {
    std::string line;
    if (!child_.read_line(line) || line.rfind("READY", 0) != 0) {
      throw std::runtime_error("offnetd did not become ready");
    }
  }

  svc::Endpoint endpoint() const { return svc::Endpoint::unix_socket(socket_); }

  /// SIGTERM, drain, reap; returns the daemon's usage and counters.
  std::pair<ChildExit, ServerCounters> stop() {
    child_.signal(SIGTERM);
    ChildExit exit = child_.wait();
    if (!exit.ok()) throw std::runtime_error("offnetd did not drain cleanly");
    std::ifstream in(metrics_path_);
    std::stringstream text;
    text << in.rdbuf();
    const std::string json = text.str();
    if (json.empty()) throw std::runtime_error("offnetd wrote no metrics");
    namespace names = svc::metric_names;
    ServerCounters counters;
    counters.requests = json_counter(json, names::kRequests);
    counters.ok = json_counter(json, names::kResponsesOk);
    counters.err = json_counter(json, names::kResponsesErr);
    counters.shed_busy = json_counter(json, names::kShedBusy);
    counters.shed_deadline = json_counter(json, names::kShedDeadline);
    counters.pipeline_idle = json.find("\"pipeline/") == std::string::npos &&
                             json.find("\"load/") == std::string::npos &&
                             json.find("\"checkpoint/") == std::string::npos;
    return {std::move(exit), counters};
  }

 private:
  Child start(const Options& options, const std::string& checkpoint) {
    std::filesystem::remove(metrics_path_);
    const std::string offnetd =
        std::filesystem::path(options.self_path).parent_path().string() +
        "/offnetd";
    return Child::exec({offnetd, "--socket", socket_, "--checkpoint",
                        checkpoint, "--workers",
                        std::to_string(connections() + kSpareWorkers),
                        "--metrics-out", metrics_path_});
  }

  std::string socket_;
  std::string metrics_path_;
  Child child_;
};

/// Client-side tallies must add up, and must equal offnetd's own.
void reconcile(const Tally& client, const ServerCounters& server,
               const char* phase, Result& result) {
  const std::string where = std::string(phase) + ": ";
  result.check(client.attempts == client.ok + client.err + client.busy_queue +
                                      client.busy_deadline + client.lost,
               where + "attempts != ok + err + busy + lost");
  result.check(server.requests ==
                   client.ok + client.err + client.busy_deadline,
               where + "offnetd served " + std::to_string(server.requests) +
                   " requests, the client saw " +
                   std::to_string(client.ok + client.err +
                                  client.busy_deadline) +
                   " answered");
  result.check(server.ok == client.ok && server.err == client.err &&
                   server.shed_busy == client.busy_queue &&
                   server.shed_deadline == client.busy_deadline,
               where + "ok/err/shed counters differ from offnetd's");
  result.check(server.pipeline_idle,
               where + "offnetd ran the pipeline, ingest or checkpointing");
  result.check(client.wrong == 0,
               where + std::to_string(client.wrong) + " wrong answers" +
                   (client.wrong_samples.empty()
                        ? std::string()
                        : " (" + client.wrong_samples.front() + ")"));
}

/// Closed loop: connections() threads (the calling one included), each
/// on one persistent connection with kPipelineDepth requests in flight (a
/// batch is written, then its answers are read), until `seconds` pass. Returns the
/// completed exchanges per second of every whole kClosedWindowSeconds
/// window (a median over windows shrugs off a short stall of a shared
/// machine); with `spans`, also each batch's round trip (µs) into
/// `round_trips_us`.
std::vector<double> closed_loop(const svc::Endpoint& endpoint,
                                const std::vector<Query>& mix,
                                double seconds, bool spans, Tally& tally,
                                std::vector<double>& round_trips_us) {
  const std::size_t n = connections();
  const std::int64_t window_ns =
      static_cast<std::int64_t>(kClosedWindowSeconds * 1e9);
  const std::size_t windows = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kClosedWindowSeconds));
  std::vector<Tally> tallies(n);
  std::vector<std::vector<double>> samples(n);
  std::vector<std::vector<std::uint64_t>> done(
      n, std::vector<std::uint64_t>(windows, 0));
  std::vector<std::thread> threads;
  const std::int64_t start_ns = obs::monotonic_nanoseconds();
  const std::int64_t end_ns = start_ns + static_cast<std::int64_t>(windows) *
                                             window_ns;
  auto connection = [&](std::size_t c) {
    // Each connection cycles through the whole mix from its own offset.
    std::size_t next = c * mix.size() / n;
    std::optional<svc::Client> client;
    for (std::int64_t now = start_ns; now < end_ns;
         now = obs::monotonic_nanoseconds()) {
      if (!client) {
        try {
          client.emplace(endpoint, kClientTimeoutMs);
        } catch (const svc::SocketError&) {
          ++tallies[c].attempts;
          ++tallies[c].lost;
          continue;
        }
      }
      std::string batch;
      std::size_t first = next;
      for (std::size_t i = 0; i < kPipelineDepth; ++i) {
        batch += mix[next++ % mix.size()].line + "\n";
      }
      const std::int64_t sent = spans ? obs::monotonic_nanoseconds() : 0;
      bool alive = client->send_raw(batch);
      for (std::size_t i = 0; i < kPipelineDepth; ++i) {
        const Query& query = mix[(first + i) % mix.size()];
        std::optional<std::string> response;
        if (alive) response = client->read_line();
        alive = response.has_value();
        const std::int64_t answered = obs::monotonic_nanoseconds();
        const std::size_t window =
            static_cast<std::size_t>((answered - start_ns) / window_ns);
        if (classify(query, response, tallies[c]) && window < windows) {
          ++done[c][window];
        }
      }
      if (spans) {
        samples[c].push_back(
            static_cast<double>(obs::monotonic_nanoseconds() - sent) /
            1e3);
      }
      if (!alive) client.reset();
    }
  };
  // Connection 0 runs on the calling thread.
  for (std::size_t c = 1; c < n; ++c) threads.emplace_back(connection, c);
  connection(0);
  for (std::thread& thread : threads) thread.join();
  std::vector<double> rates(windows, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    tally.merge(tallies[c]);
    for (std::size_t w = 0; w < windows; ++w) {
      rates[w] += static_cast<double>(done[c][w]) / kClosedWindowSeconds;
    }
    round_trips_us.insert(round_trips_us.end(), samples[c].begin(),
                          samples[c].end());
  }
  return rates;
}

/// What the open loop measured.
struct OpenLoop {
  std::vector<double> latency_us;  // from due time; failures = +inf
  std::vector<std::vector<double>> period_latency_us;  // per reload period
  std::vector<double> lag_us;      // send time - due time
  std::vector<double> connect_us;
  std::map<std::string, std::vector<double>> verb_us;  // request only
  std::vector<double> reload_s;
  Tally tally;
};

/// Open loop: requests due every 1/rate seconds, each on a fresh
/// connection, from one sender thread that sleeps until each is due.
/// With a `reload` path, one more thread sends a RELOAD of it every
/// kPeriodSeconds.
OpenLoop open_loop(const svc::Endpoint& endpoint,
                   const std::vector<Query>& mix, double seconds,
                   const std::string& reload_path) {
  const std::size_t total =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   seconds * kOpenRatePerSecond));
  const double interval_ns = 1e9 / kOpenRatePerSecond;

  const std::size_t periods = std::max<std::size_t>(
      1, static_cast<std::size_t>(seconds / kPeriodSeconds));
  const std::int64_t period_ns =
      static_cast<std::int64_t>(kPeriodSeconds * 1e9);
  OpenLoop out;  // the sender's; the reload thread's tally is `reloads`
  out.period_latency_us.resize(periods);
  Tally reloads;
  const Query reload{"RELOAD " + reload_path, "RELOAD", ""};
  const std::int64_t start_ns = obs::monotonic_nanoseconds() + 20'000'000;
  const std::int64_t end_ns =
      start_ns + static_cast<std::int64_t>(periods) * period_ns;

  auto sleep_until = [](std::int64_t due) {
    const std::int64_t now = obs::monotonic_nanoseconds();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
  };
  std::thread reloader;
  if (!reload_path.empty()) reloader = std::thread([&] {
    for (std::int64_t due = start_ns; due < end_ns; due += period_ns) {
      sleep_until(due);
      obs::Stopwatch watch;
      const std::optional<std::string> response =
          one_shot(endpoint, reload.line, nullptr);
      if (classify(reload, response, reloads)) {
        out.reload_s.push_back(watch.seconds());
      }
    }
  });
  for (std::size_t i = 0; i < total; ++i) {
    const std::int64_t due =
        start_ns +
        static_cast<std::int64_t>(static_cast<double>(i) * interval_ns);
    sleep_until(due);
    const std::int64_t sent = obs::monotonic_nanoseconds();
    out.lag_us.push_back(static_cast<double>(sent - due) / 1e3);
    const Query& query = mix[i % mix.size()];  // the seeded order
    double connect_us = 0.0;
    const std::optional<std::string> response =
        one_shot(endpoint, query.line, &connect_us);
    const std::int64_t done = obs::monotonic_nanoseconds();
    const bool ok = classify(query, response, out.tally);
    const double latency_us =
        ok ? static_cast<double>(done - due) / 1e3
           : std::numeric_limits<double>::infinity();
    out.latency_us.push_back(latency_us);
    const std::size_t period =
        static_cast<std::size_t>((due - start_ns) / period_ns);
    if (period < periods) out.period_latency_us[period].push_back(latency_us);
    if (ok) {
      out.connect_us.push_back(connect_us);
      out.verb_us[query.verb].push_back(
          static_cast<double>(done - sent) / 1e3 - connect_us);
    }
  }
  if (reloader.joinable()) reloader.join();
  out.tally.merge(reloads);
  return out;
}

/// What one offnetd process served while the closed loop and the open
/// loop ran against it side by side.
struct Phase {
  std::vector<double> rates;           // closed loop, per window
  std::vector<double> round_trips_us;  // closed-loop batches (traced)
  Tally closed;
  OpenLoop open;
  ChildExit exit;
  ServerCounters counters;
};

/// Starts an offnetd named `name` and runs the closed loop and the open
/// loop against it at the same time for `seconds` (with a `reload_path`,
/// RELOADs too), then drains it and reconciles its counters. Running them
/// together keeps the machine's CPUs busy, so a request's latency is the
/// service's and the guest scheduler's, not how fast a shared host wakes
/// an idle CPU.
Phase serve(const Options& options, const std::string& checkpoint,
            const std::string& name, const std::vector<Query>& mix,
            double seconds, const std::string& reload_path, bool spans,
            Result& result) {
  Phase phase;
  Daemon daemon(options, checkpoint, name);
  std::thread closed([&] {
    phase.rates = closed_loop(daemon.endpoint(), mix, seconds, spans,
                              phase.closed, phase.round_trips_us);
  });
  struct Joiner {
    std::thread& thread;
    ~Joiner() {
      if (thread.joinable()) thread.join();
    }
  } joiner{closed};
  phase.open = open_loop(daemon.endpoint(), mix, seconds, reload_path);
  closed.join();
  std::tie(phase.exit, phase.counters) = daemon.stop();
  Tally both = phase.closed;
  both.merge(phase.open.tally);
  reconcile(both, phase.counters, name.c_str(), result);
  return phase;
}

}  // namespace

void run_query(const Options& options, Result& result) {
  const std::string corpus = options.work_dir + "/corpus";
  // Relative to the checkout root, offnetd's working directory too.
  const std::string checkpoint = options.work_dir + "/query.ckpt";
  const int repeats = options.trace ? 1 : kExportSetupRepeats;
  std::vector<double> setup_s;
  for (int i = 0; i < repeats; ++i) {
    Child child = Child::fork_call([&] {
      obs::Stopwatch watch;
      export_world(options.seed, corpus);
      const Report run = supervised_run(corpus, checkpoint, false);
      Report report;
      report.add("setup_s", watch.seconds());
      report.add("months_failed", run.get("months_failed"));
      return report;
    });
    ChildExit exit = child.wait();
    const Report report = Report::parse(exit.stdout_text);
    if (!exit.ok() || report.number("months_failed") != 0.0) {
      throw std::runtime_error("query set-up failed");
    }
    setup_s.push_back(report.number("setup_s"));
  }
  result.note("setup_repeats", std::to_string(setup_s.size()));
  result.set("setup_s", median(setup_s));

  // The in-process reference the answers are checked against (and, for
  // the traced run, the snapshot-load span).
  std::vector<double> load_s;
  std::shared_ptr<const svc::ServiceSnapshot> snapshot;
  for (int i = 0; i < (options.trace ? 3 : 1); ++i) {
    obs::Stopwatch watch;
    snapshot = svc::load_snapshot_from_checkpoint(checkpoint);
    load_s.push_back(watch.seconds());
  }
  result.check(snapshot->validate().empty(), "checkpoint is unserviceable");
  std::vector<Query> mix = request_mix(options.seed, *snapshot);

  Tally all;
  {
    // Reference pass: every distinct request once, serially.
    Daemon daemon(options, checkpoint, "reference");
    Tally tally;
    for (Query& query : mix) {
      const std::optional<std::string> response =
          one_shot(daemon.endpoint(), query.line, nullptr);
      classify(query, response, tally);
      result.check(response && answer_matches(*snapshot, query, *response),
                   "reference answer to '" + query.line + "' is wrong: " +
                       response.value_or("(none)"));
      query.expected = response.value_or("");
    }
    reconcile(tally, daemon.stop().second, "reference pass", result);
    all.merge(tally);
  }

  // The bounded throughput and latency come from the serving phase, with
  // RELOADs; peak RSS from a shorter reload-free phase after it. A traced
  // run serves twice, untraced and traced, for the tracing overhead.
  const double serve_s = options.seconds * kServeShare;
  const double steady_s = options.seconds - serve_s;
  std::optional<Phase> untraced;
  if (options.trace) {
    untraced = serve(options, checkpoint, "untraced", mix, serve_s,
                     checkpoint, false, result);
  }
  const Phase served = serve(options, checkpoint, "serve", mix, serve_s,
                             checkpoint, options.trace, result);
  const Phase steady = serve(options, checkpoint, "steady", mix, steady_s,
                             "", false, result);
  result.check(!served.open.reload_s.empty(), "no RELOAD succeeded");

  ServerCounters counters;
  std::vector<const Phase*> phases = {&served, &steady};
  if (untraced) phases.push_back(&*untraced);
  for (const Phase* phase : phases) {
    counters.merge(phase->counters);
    all.merge(phase->closed);
    all.merge(phase->open.tally);
  }
  result.attempt(all.attempts, all.failed());
  result.note("offered_rate_per_s", std::to_string(kOpenRatePerSecond));
  result.note("offered_share_of_capacity",
              std::to_string(kOpenRatePerSecond / median(served.rates)));
  result.note("connections", std::to_string(connections()));
  result.note("pipeline_depth", std::to_string(kPipelineDepth));
  result.note("open_loop_requests",
              std::to_string(served.open.latency_us.size()));
  result.note("reloads", std::to_string(served.open.reload_s.size()));
  result.note("corpus_bytes", std::to_string(directory_bytes(corpus)));
  result.note("checkpoint_bytes",
              std::to_string(std::filesystem::file_size(checkpoint)));

  auto per_period = [](const OpenLoop& loop, double q) {
    std::vector<double> values;
    for (const std::vector<double>& period : loop.period_latency_us) {
      values.push_back(quantile(period, q));
    }
    return median(values);
  };
  if (!options.trace) {
    result.set("throughput_per_s", median(served.rates));
    // Reads beside reloads and beside the closed loop, as a user of a
    // busy, reloading offnetd sees them: the median over periods of each
    // period's median, so a spell of a slow shared host moves a few
    // periods, not the figure.
    result.set("latency_p50_us", per_period(served.open, 0.50));
    // With reloads, peak RSS depends on whether the old and new
    // snapshots happen to be alive at once; the reload-free daemon's
    // does not.
    result.set("peak_rss_mb", steady.exit.peak_rss_mb);
    return;
  }
  std::map<std::string, std::vector<double>> verb_us = served.open.verb_us;
  result.set("cpu_s", served.exit.cpu_s);
  result.set("svc.connect_us", median(served.open.connect_us));
  result.set("svc.ping_p50_us", median(verb_us["PING"]));
  result.set("svc.footprint_p50_us", median(verb_us["FOOTPRINT"]));
  result.set("svc.coverage_p50_us", median(verb_us["COVERAGE"]));
  result.set("svc.cohost_p50_us", median(verb_us["COHOST"]));
  result.set("svc.p99_us", per_period(steady.open, 0.99));
  result.set("svc.snapshot_load_s", median(load_s));
  result.set("svc.reload_s", median(served.open.reload_s));
  result.set("svc.reload_p99_us", per_period(served.open, 0.99));
  result.set("svc.reload_peak_rss_mb", served.exit.peak_rss_mb);
  result.set("svc.shed_busy", static_cast<double>(counters.shed_busy));
  result.set("svc.shed_deadline",
             static_cast<double>(counters.shed_deadline));
  result.set("svc.responses_err", static_cast<double>(counters.err));
  result.set("svc.generator_lag_us", quantile(served.open.lag_us, 0.99));
  result.set("failed_frac", static_cast<double>(all.failed()) /
                                static_cast<double>(all.attempts));
  // Closed-loop accounting: connection time inside batch round trips vs.
  // the client's own time between them.
  double inside_s = 0.0;
  for (double us : served.round_trips_us) inside_s += us * 1e-6;
  result.set("trace.layer_self_s", inside_s);
  result.set("trace.remainder_s",
             static_cast<double>(connections()) * serve_s - inside_s);
  result.set("trace.overhead_frac",
             median(untraced->rates) / median(served.rates) - 1.0);
}

}  // namespace offnet::e2e

#pragma once

// The three workloads of the end-to-end benchmark (bench/e2e/README.md).
// Each fills `result` with its end-to-end metrics (options.trace false)
// or its per-layer metrics (options.trace true) and records every output
// check it makes.

#include <string>

#include "common.h"

namespace offnet::e2e {

/// Supervised longitudinal run over an exported corpus: streaming ingest
/// and the pipeline at nproc threads, a checkpoint after every month.
void run_series(const Options& options, Result& result);

/// World-driven longitudinal run at one thread, starting cold.
void run_study(const Options& options, Result& result);

/// offnetd serving a supervised run's checkpoint: a closed loop on
/// persistent connections, then an open loop with periodic RELOADs.
void run_query(const Options& options, Result& result);

/// One supervised series run in this process (a series repetition, and
/// the query workload's set-up). Writes the checkpoint to
/// `checkpoint_path`.
Report supervised_run(const std::string& corpus_dir,
                      const std::string& checkpoint_path, bool trace);

/// Builds the seeded world and exports the window into
/// `corpus_dir` (DIR/<YYYY-MM>/, the `offnet_cli export` layout).
void export_world(std::uint64_t seed, const std::string& corpus_dir);

}  // namespace offnet::e2e

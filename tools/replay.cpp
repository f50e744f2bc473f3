// replay: deterministic snapshot / resume / divergence-bisection driver.
//
// Modes:
//
//   replay run    --scenario fault|ga|adaptive|tenant [--routing static|adaptive]
//                 [--threads N] [--seed S]
//                 [--digest-every NS] [--snapshot-every NS] [--prefix P]
//                 [--log FILE]
//       Runs the scenario straight through, printing (and optionally
//       writing) the per-tick digest log and snapshot files. Run it on two
//       builds (same flags), then feed both logs to `bisect`.
//
//   replay verify --scenario fault|ga|adaptive|tenant [--routing static|adaptive]
//                 [--threads N] [--seed S]
//                 [--digest-every NS] [--snap-at NS] [--prefix P]
//       The resume-from-snapshot determinism check: runs straight through,
//       runs again writing snapshots, resumes the mid-run snapshot in a
//       fresh simulator and asserts (snapshot::divergence) that the rerun
//       and the resumed run reproduce every digest, the final state digest
//       and the metrics digest of the uninterrupted run. Exits 1 on any
//       divergence (CI runs this for every scenario).
//
//   replay bisect --a LOG --b LOG [--prefix P --snapshot-every NS]
//       Compares two digest logs (from `run` on two builds or two
//       configurations) and reports the first divergent tick; with a
//       snapshot cadence it also names the latest snapshot at or before
//       the divergence — restore that file under a debugger and
//       single-step the window [snapshot, divergence].
//
//   replay campaign [--scenarios N] [--seed S] [--engine-shards K]
//                   [--engine-workers W] [--alt-workers W2] [--flows N]
//                   [--digest-every NS] [--artifact-dir DIR] [--no-resume]
//       Runs the gray-chaos campaign (src/chaos/): N seeded scenarios with
//       hard + gray fault waves, each checked against the machine-readable
//       invariants (flow resolution, byte conservation, recovery bound,
//       resume-digest and cross-worker digest identity). On a violation
//       the fault script is ddmin-shrunk and the minimal repro written to
//       --artifact-dir. Exits 1 if any scenario fails.
//
//   replay repro FILE
//       Re-runs a repro file written by a failed campaign and exits 1 when
//       the archived invariant violation re-triggers (0 = did not
//       reproduce — e.g. after a fix).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chaos/campaign.h"
#include "snapshot/archive.h"
#include "snapshot/digest.h"
#include "snapshot/replay.h"

using namespace r2c2;
using snapshot::DigestLog;
using snapshot::ReplayConfig;
using snapshot::ReplayResult;
using snapshot::Scenario;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s run|verify|bisect|campaign|repro [options]\n"
               "  run      --scenario fault|ga|adaptive|tenant [--routing static|adaptive]\n"
               "           [--threads N] [--seed S] [--digest-every NS]\n"
               "           [--engine-shards K] [--engine-workers W]\n"
               "           [--snapshot-every NS] [--prefix P] [--log FILE]\n"
               "  verify   --scenario fault|ga|adaptive|tenant [--routing static|adaptive]\n"
               "           [--threads N] [--seed S] [--digest-every NS]\n"
               "           [--engine-shards K] [--engine-workers W]\n"
               "           [--snap-at NS] [--prefix P]\n"
               "  bisect   --a LOG --b LOG [--prefix P --snapshot-every NS]\n"
               "  campaign [--scenarios N] [--seed S] [--engine-shards K]\n"
               "           [--engine-workers W] [--alt-workers W2] [--flows N]\n"
               "           [--digest-every NS] [--artifact-dir DIR] [--no-resume]\n"
               "  repro    FILE\n"
               "--engine-shards fixes the event-engine partition count (part of the\n"
               "trajectory); --engine-workers is pure parallelism and must not change\n"
               "a single digest. --routing overrides the scenario's routing mode:\n"
               "static forces congestion-aware spraying off, adaptive forces it on.\n",
               argv0);
  std::exit(2);
}

struct Args {
  std::string mode;
  ReplayConfig replay;
  chaos::CampaignConfig campaign;
  TimeNs snap_at = 0;  // verify: 0 = midpoint of the straight-through run
  std::string log_path;
  std::string log_a, log_b;
  std::string repro_path;
};

Args parse(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  Args args;
  args.mode = argv[1];
  args.replay.snapshot_prefix = "r2c2-replay-";
  if (args.mode == "repro") {
    if (argc != 3) usage(argv[0]);
    args.repro_path = argv[2];
    return args;
  }
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 2; i < argc; ++i) {
    const std::string opt = argv[i];
    if (opt == "--scenario") {
      args.replay.scenario = value(i);
    } else if (opt == "--routing") {
      args.replay.routing = value(i);
    } else if (opt == "--threads") {
      args.replay.threads = std::atoi(value(i));
    } else if (opt == "--scenarios") {
      args.campaign.scenarios = std::atoi(value(i));
    } else if (opt == "--engine-shards") {
      args.replay.engine_shards = std::atoi(value(i));
      args.campaign.engine_shards = args.replay.engine_shards;
    } else if (opt == "--engine-workers") {
      args.replay.engine_workers = std::atoi(value(i));
      args.campaign.base_workers = args.replay.engine_workers;
    } else if (opt == "--alt-workers") {
      args.campaign.alt_workers = std::atoi(value(i));
    } else if (opt == "--flows") {
      args.campaign.flows = std::atoi(value(i));
    } else if (opt == "--artifact-dir") {
      args.campaign.artifact_dir = value(i);
    } else if (opt == "--no-resume") {
      args.campaign.check_resume = false;
    } else if (opt == "--seed") {
      args.replay.seed = std::strtoull(value(i), nullptr, 10);
      args.campaign.seed = args.replay.seed;
    } else if (opt == "--digest-every") {
      args.replay.digest_every = std::strtoll(value(i), nullptr, 10);
      args.campaign.digest_every = args.replay.digest_every;
    } else if (opt == "--snapshot-every") {
      args.replay.snapshot_every = std::strtoll(value(i), nullptr, 10);
    } else if (opt == "--prefix") {
      args.replay.snapshot_prefix = value(i);
    } else if (opt == "--snap-at") {
      args.snap_at = std::strtoll(value(i), nullptr, 10);
    } else if (opt == "--log") {
      args.log_path = value(i);
    } else if (opt == "--a") {
      args.log_a = value(i);
    } else if (opt == "--b") {
      args.log_b = value(i);
    } else {
      usage(argv[0]);
    }
  }
  if (args.replay.digest_every <= 0) usage(argv[0]);
  return args;
}

int run_mode(const Args& args) {
  Scenario scenario(args.replay);
  const ReplayResult res = scenario.run();
  for (const auto& p : res.digests.points) {
    std::printf("%lld %016llx\n", static_cast<long long>(p.at),
                static_cast<unsigned long long>(p.digest));
  }
  std::printf("# final_digest %016llx metrics_digest %016llx ticks %zu\n",
              static_cast<unsigned long long>(res.final_digest),
              static_cast<unsigned long long>(res.metrics_digest), res.digests.points.size());
  for (const std::string& s : res.snapshots_written) {
    std::printf("# snapshot %s\n", s.c_str());
  }
  if (!args.log_path.empty() && !res.digests.write_file(args.log_path)) {
    std::fprintf(stderr, "error: could not write digest log %s\n", args.log_path.c_str());
    return 2;
  }
  return 0;
}

int verify_mode(const Args& args) {
  // Pass 1: straight through, no instrumentation beyond the digest trail.
  ReplayConfig straight_cfg = args.replay;
  straight_cfg.snapshot_every = 0;
  Scenario straight(straight_cfg);
  const ReplayResult full = straight.run();
  if (full.digests.points.size() < 4) {
    std::fprintf(stderr, "error: run too short to verify (%zu digest points)\n",
                 full.digests.points.size());
    return 2;
  }
  const TimeNs end = full.digests.points.back().at;
  TimeNs snap_at = args.snap_at;
  if (snap_at <= 0) {
    snap_at = (end / 2 / args.replay.digest_every) * args.replay.digest_every;
    if (snap_at <= 0) snap_at = args.replay.digest_every;
  }

  // Pass 2: same run again, snapshotting at snap_at (and every later
  // multiple — the extra files are free verification material). It must
  // reproduce pass 1 exactly or the scenario itself is nondeterministic,
  // which verify must also catch.
  ReplayConfig snap_cfg = args.replay;
  snap_cfg.snapshot_every = snap_at;
  Scenario snapper(snap_cfg);
  const ReplayResult snapped = snapper.run();
  if (const std::string why = snapshot::divergence(full, snapped); !why.empty()) {
    std::fprintf(stderr, "DIVERGENCE: two straight-through runs disagree: %s\n", why.c_str());
    return 1;
  }
  if (snapped.snapshots_written.empty()) {
    std::fprintf(stderr, "error: no snapshot was written (snap_at=%lld, end=%lld)\n",
                 static_cast<long long>(snap_at), static_cast<long long>(end));
    return 2;
  }
  const std::string& snap_path = snapped.snapshots_written.front();

  // Pass 3: fresh simulator, resume from the snapshot, run to completion.
  ReplayConfig resume_cfg = args.replay;
  resume_cfg.snapshot_every = 0;
  Scenario resumed(resume_cfg);
  snapshot::load_snapshot(resumed.simulator(), snap_path);
  if (resumed.simulator().now() != snap_at) {
    std::fprintf(stderr, "DIVERGENCE: restored clock %lld != snapshot time %lld\n",
                 static_cast<long long>(resumed.simulator().now()),
                 static_cast<long long>(snap_at));
    return 1;
  }
  const ReplayResult tail = resumed.run();

  // The resumed run must reproduce the straight run past the snapshot.
  if (const std::string why = snapshot::divergence(full, tail, snap_at); !why.empty()) {
    std::fprintf(stderr, "DIVERGENCE: resumed run: %s\n", why.c_str());
    return 1;
  }
  std::printf(
      "OK: %s (threads=%d shards=%d workers=%d seed=%llu) resumed at t=%lld ns; "
      "%zu post-snapshot digests, final "
      "state %016llx and metrics %016llx all bit-identical\n",
      args.replay.scenario.c_str(), args.replay.threads, args.replay.engine_shards,
      args.replay.engine_workers,
      static_cast<unsigned long long>(args.replay.seed), static_cast<long long>(snap_at),
      tail.digests.points.size(), static_cast<unsigned long long>(tail.final_digest),
      static_cast<unsigned long long>(tail.metrics_digest));
  return 0;
}

int bisect_mode(const Args& args) {
  if (args.log_a.empty() || args.log_b.empty()) usage("replay");
  const DigestLog a = DigestLog::read_file(args.log_a);
  const DigestLog b = DigestLog::read_file(args.log_b);
  const std::ptrdiff_t div = DigestLog::first_divergence(a, b);
  if (div < 0) {
    if (a.points.size() != b.points.size()) {
      std::printf("logs agree on their common prefix but differ in length (%zu vs %zu points)\n",
                  a.points.size(), b.points.size());
      return 1;
    }
    std::printf("logs are identical (%zu points)\n", a.points.size());
    return 0;
  }
  const auto& pa = a.points[static_cast<std::size_t>(div)];
  const auto& pb = b.points[static_cast<std::size_t>(div)];
  std::printf("first divergence at index %td: t=%lld ns (%016llx vs %016llx)\n", div,
              static_cast<long long>(pa.at), static_cast<unsigned long long>(pa.digest),
              static_cast<unsigned long long>(pb.digest));
  if (args.replay.snapshot_every > 0) {
    const TimeNs before = (pa.at - 1) / args.replay.snapshot_every * args.replay.snapshot_every;
    if (before > 0) {
      std::printf("restore %s%lld.snap and step the window (%lld, %lld] to localize it\n",
                  args.replay.snapshot_prefix.c_str(), static_cast<long long>(before),
                  static_cast<long long>(before), static_cast<long long>(pa.at));
    } else {
      std::printf("divergence precedes the first snapshot; replay from t=0\n");
    }
  }
  return 1;
}

int campaign_mode(const Args& args) {
  const chaos::CampaignResult result = chaos::run_campaign(args.campaign);
  for (const chaos::ScenarioOutcome& sc : result.scenarios) {
    std::printf("scenario %2d seed %llu: %s  (events=%zu gray_drops=%llu aborts=%llu "
                "demoted=%llu state %016llx metrics %016llx)\n",
                sc.index, static_cast<unsigned long long>(sc.scenario_seed),
                sc.passed ? "PASS" : "FAIL", sc.fault_events,
                static_cast<unsigned long long>(sc.gray_drops),
                static_cast<unsigned long long>(sc.flow_aborts),
                static_cast<unsigned long long>(sc.links_demoted),
                static_cast<unsigned long long>(sc.final_digest),
                static_cast<unsigned long long>(sc.metrics_digest));
    for (const chaos::Violation& v : sc.violations) {
      std::printf("  VIOLATION %s: %s\n", v.invariant.c_str(), v.detail.c_str());
    }
    if (!sc.repro_path.empty()) {
      std::printf("  repro: %s (re-run with: replay repro %s)\n", sc.repro_path.c_str(),
                  sc.repro_path.c_str());
    }
  }
  std::printf("campaign: %d/%zu scenarios passed (seed=%llu shards=%d workers=%d/%d)\n",
              static_cast<int>(result.scenarios.size()) - result.failed,
              result.scenarios.size(), static_cast<unsigned long long>(args.campaign.seed),
              args.campaign.engine_shards, args.campaign.base_workers,
              args.campaign.alt_workers);
  return result.passed() ? 0 : 1;
}

int repro_mode(const Args& args) {
  const chaos::Repro repro = chaos::load_repro(args.repro_path);
  std::printf("repro: seed=%llu scenario=%d invariant=%s events=%zu\n",
              static_cast<unsigned long long>(repro.config.seed), repro.index,
              repro.invariant.c_str(), repro.script.events.size());
  if (!repro.detail.empty()) std::printf("  recorded detail: %s\n", repro.detail.c_str());
  if (chaos::repro_triggers(repro)) {
    std::printf("REPRODUCED: invariant %s still violated\n", repro.invariant.c_str());
    return 1;
  }
  std::printf("did not reproduce: invariant %s holds with this script\n",
              repro.invariant.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.mode == "run") return run_mode(args);
    if (args.mode == "verify") return verify_mode(args);
    if (args.mode == "bisect") return bisect_mode(args);
    if (args.mode == "campaign") return campaign_mode(args);
    if (args.mode == "repro") return repro_mode(args);
  } catch (const snapshot::SnapshotError& e) {
    std::fprintf(stderr, "snapshot error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage(argv[0]);
}

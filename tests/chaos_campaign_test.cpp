// Chaos campaign harness: seeded gray-chaos scenario generation, the
// machine-checked invariants, ddmin shrinking of a violating fault script
// down to a minimal repro, and the repro archive round trip.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/campaign.h"

namespace r2c2 {
namespace {

namespace fs = std::filesystem;

chaos::CampaignConfig small_config() {
  chaos::CampaignConfig config;
  config.scenarios = 2;
  config.seed = 7;
  config.flows = 24;
  config.alt_workers = 2;
  return config;
}

TEST(ChaosScenario, GenerationIsDeterministic) {
  const chaos::CampaignConfig config = small_config();
  const chaos::ScenarioSpec a = chaos::make_gray_scenario(config, 1);
  const chaos::ScenarioSpec b = chaos::make_gray_scenario(config, 1);
  ASSERT_EQ(a.sim_config.faults.events.size(), b.sim_config.faults.events.size());
  for (std::size_t i = 0; i < a.sim_config.faults.events.size(); ++i) {
    const sim::FaultEvent& ea = a.sim_config.faults.events[i];
    const sim::FaultEvent& eb = b.sim_config.faults.events[i];
    EXPECT_EQ(ea.at, eb.at);
    EXPECT_EQ(ea.kind, eb.kind);
    EXPECT_EQ(ea.link, eb.link);
    EXPECT_EQ(ea.node, eb.node);
  }
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].start, b.arrivals[i].start);
    EXPECT_EQ(a.arrivals[i].src, b.arrivals[i].src);
    EXPECT_EQ(a.arrivals[i].dst, b.arrivals[i].dst);
    EXPECT_EQ(a.arrivals[i].bytes, b.arrivals[i].bytes);
  }
  // Different indices draw different scripts (seeds are splitmix-derived).
  const chaos::ScenarioSpec c = chaos::make_gray_scenario(config, 0);
  EXPECT_NE(c.sim_config.seed, a.sim_config.seed);
}

TEST(ChaosCampaign, SmallCampaignPassesAllInvariants) {
  const chaos::CampaignConfig config = small_config();
  const chaos::CampaignResult result = chaos::run_campaign(config);
  EXPECT_TRUE(result.passed());
  EXPECT_EQ(result.failed, 0);
  ASSERT_EQ(result.scenarios.size(), 2u);
  for (const chaos::ScenarioOutcome& s : result.scenarios) {
    EXPECT_TRUE(s.passed);
    EXPECT_TRUE(s.violations.empty());
    EXPECT_GT(s.fault_events, 0);
    EXPECT_NE(s.final_digest, 0u);
  }
  // Same config, same campaign: outcomes are bit-identical.
  const chaos::CampaignResult again = chaos::run_campaign(config);
  ASSERT_EQ(again.scenarios.size(), result.scenarios.size());
  for (std::size_t i = 0; i < result.scenarios.size(); ++i) {
    EXPECT_EQ(again.scenarios[i].final_digest, result.scenarios[i].final_digest);
    EXPECT_EQ(again.scenarios[i].metrics_digest, result.scenarios[i].metrics_digest);
  }
}

TEST(ChaosCampaign, BrokenInvariantShrinksToMinimalRepro) {
  // Force a violation: recovery_bound=0 makes any hard-failure detection a
  // "rebuild took too long" finding. The campaign must fail, shrink the
  // fault script to a smaller repro, archive it, and the archived repro
  // must still trigger the same invariant when replayed from disk.
  chaos::CampaignConfig config;
  config.scenarios = 1;
  config.seed = 7;
  config.flows = 16;
  config.alt_workers = 0;    // skip the worker-equivalence leg for speed
  config.check_resume = false;
  config.recovery_bound = 0;
  const fs::path dir = fs::temp_directory_path() / "r2c2-chaos-test";
  fs::create_directories(dir);
  config.artifact_dir = dir.string();

  const chaos::CampaignResult result = chaos::run_campaign(config);
  EXPECT_FALSE(result.passed());
  ASSERT_EQ(result.scenarios.size(), 1u);
  const chaos::ScenarioOutcome& s = result.scenarios[0];
  EXPECT_FALSE(s.passed);
  ASSERT_FALSE(s.violations.empty());
  EXPECT_EQ(s.violations[0].invariant, "recovery-bound");
  ASSERT_FALSE(s.repro_path.empty());
  ASSERT_TRUE(fs::exists(s.repro_path));

  const chaos::Repro repro = chaos::load_repro(s.repro_path);
  EXPECT_EQ(repro.invariant, "recovery-bound");
  EXPECT_EQ(repro.index, 0);
  EXPECT_EQ(repro.config.seed, config.seed);
  const chaos::ScenarioSpec full = chaos::make_gray_scenario(config, 0);
  EXPECT_LT(repro.script.events.size(), full.sim_config.faults.events.size());
  EXPECT_GT(repro.script.events.size(), 0u);
  // Minimality (ddmin's 1-minimal guarantee was verified during the
  // shrink); here we check the archived script still reproduces.
  EXPECT_TRUE(chaos::repro_triggers(repro));

  fs::remove_all(dir);
}

TEST(ChaosRepro, ArchiveRoundTripsEveryField) {
  chaos::Repro repro;
  repro.config = small_config();
  repro.config.digest_every = 17 * kNsPerUs;
  repro.config.recovery_bound = 123 * kNsPerUs;
  repro.index = 1;
  repro.invariant = "byte-conservation";
  repro.detail = "delivered 12345 bytes but only 12000 on the wire";
  sim::LinkDegrade gray;
  gray.loss_prob = 0.0375;
  gray.corrupt_prob = 1.25e-4;
  gray.added_latency = 640;
  gray.jitter = 321;
  repro.script.events.push_back(sim::FaultScript::fail_link(10 * kNsPerUs, 3));
  repro.script.events.push_back(sim::FaultScript::degrade_one_way(20 * kNsPerUs, 5, gray));
  sim::LinkDegrade flap;
  flap.flap_period = 50 * kNsPerUs;
  flap.flap_down = 13 * kNsPerUs;
  repro.script.events.push_back(sim::FaultScript::degrade_link(30 * kNsPerUs, 7, flap));
  repro.script.events.push_back(sim::FaultScript::fail_node(40 * kNsPerUs, 11));

  const fs::path file = fs::temp_directory_path() / "r2c2-chaos-roundtrip.txt";
  chaos::write_repro(file.string(), repro);
  const chaos::Repro back = chaos::load_repro(file.string());

  EXPECT_EQ(back.config.seed, repro.config.seed);
  EXPECT_EQ(back.config.engine_shards, repro.config.engine_shards);
  EXPECT_EQ(back.config.base_workers, repro.config.base_workers);
  EXPECT_EQ(back.config.alt_workers, repro.config.alt_workers);
  EXPECT_EQ(back.config.flows, repro.config.flows);
  EXPECT_EQ(back.config.digest_every, repro.config.digest_every);
  EXPECT_EQ(back.config.recovery_bound, repro.config.recovery_bound);
  EXPECT_EQ(back.index, repro.index);
  EXPECT_EQ(back.invariant, repro.invariant);
  EXPECT_EQ(back.detail, repro.detail);
  ASSERT_EQ(back.script.events.size(), repro.script.events.size());
  for (std::size_t i = 0; i < repro.script.events.size(); ++i) {
    const sim::FaultEvent& a = repro.script.events[i];
    const sim::FaultEvent& b = back.script.events[i];
    EXPECT_EQ(b.at, a.at);
    EXPECT_EQ(b.kind, a.kind);
    EXPECT_EQ(b.link, a.link);
    EXPECT_EQ(b.node, a.node);
    EXPECT_DOUBLE_EQ(b.gray.loss_prob, a.gray.loss_prob);
    EXPECT_DOUBLE_EQ(b.gray.corrupt_prob, a.gray.corrupt_prob);
    EXPECT_EQ(b.gray.added_latency, a.gray.added_latency);
    EXPECT_EQ(b.gray.jitter, a.gray.jitter);
    EXPECT_EQ(b.gray.flap_period, a.gray.flap_period);
    EXPECT_EQ(b.gray.flap_down, a.gray.flap_down);
  }
  std::remove(file.string().c_str());
}

// Repro files come from outside the program (CI artifacts): a field the
// campaign torus or the run loop cannot take is refused with an error that
// names it, before anything runs.
chaos::Repro one_event_repro() {
  chaos::Repro repro;
  repro.config = small_config();
  repro.invariant = "recovery-bound";
  repro.script.events.push_back(sim::FaultScript::fail_link(10 * kNsPerUs, 3));
  return repro;
}

// Writes `repro` and returns load_repro's error message ("" when it loads).
std::string load_error(const chaos::Repro& repro) {
  const fs::path file =
      fs::temp_directory_path() /
      (std::string("r2c2-chaos-") +
       ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".txt");
  chaos::write_repro(file.string(), repro);
  std::string error;
  try {
    chaos::load_repro(file.string());
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  std::remove(file.string().c_str());
  return error;
}

TEST(ChaosRepro, RejectsUnknownEventKind) {
  chaos::Repro repro = one_event_repro();
  EXPECT_EQ(load_error(repro), "");
  repro.script.events[0].kind = static_cast<sim::FaultEvent::Kind>(42);
  const std::string error = load_error(repro);
  EXPECT_NE(error.find("kind 42"), std::string::npos) << error;
}

TEST(ChaosRepro, RejectsLinkOutsideTheTorus) {
  chaos::Repro repro = one_event_repro();
  repro.script.events[0].link = 99999;
  const std::string error = load_error(repro);
  EXPECT_NE(error.find("link 99999"), std::string::npos) << error;
}

TEST(ChaosRepro, RejectsNodeOutsideTheTorus) {
  chaos::Repro repro = one_event_repro();
  repro.script.events[0] = sim::FaultScript::fail_node(10 * kNsPerUs, 16);
  const std::string error = load_error(repro);
  EXPECT_NE(error.find("node 16"), std::string::npos) << error;
}

TEST(ChaosRepro, RejectsNonPositiveDigestCadence) {
  chaos::Repro repro = one_event_repro();
  repro.config.digest_every = 0;
  const std::string error = load_error(repro);
  EXPECT_NE(error.find("digest-every 0"), std::string::npos) << error;
}

TEST(ChaosShrink, ShrunkenScriptIsOneMinimal) {
  // ddmin postcondition: removing any single event from the shrunken
  // script makes the violation disappear.
  chaos::CampaignConfig config;
  config.scenarios = 1;
  config.seed = 7;
  config.flows = 16;
  config.alt_workers = 0;
  config.check_resume = false;
  config.recovery_bound = 0;
  const chaos::ScenarioSpec spec = chaos::make_gray_scenario(config, 0);
  const sim::FaultScript shrunk =
      chaos::shrink_fault_script(spec, config, "recovery-bound");
  ASSERT_GT(shrunk.events.size(), 0u);
  ASSERT_LT(shrunk.events.size(), spec.sim_config.faults.events.size());

  chaos::Repro repro;
  repro.config = config;
  repro.index = 0;
  repro.invariant = "recovery-bound";
  repro.script = shrunk;
  EXPECT_TRUE(chaos::repro_triggers(repro));
  for (std::size_t skip = 0; skip < shrunk.events.size(); ++skip) {
    chaos::Repro smaller = repro;
    smaller.script.events.clear();
    for (std::size_t i = 0; i < shrunk.events.size(); ++i) {
      if (i != skip) smaller.script.events.push_back(shrunk.events[i]);
    }
    EXPECT_FALSE(chaos::repro_triggers(smaller))
        << "dropping event " << skip << " still violates: not 1-minimal";
  }
}

}  // namespace
}  // namespace r2c2

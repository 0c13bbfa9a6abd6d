// Tests for the deterministic fault-injection registry (src/common/fault.h)
// and the numerical-health guards (src/common/health.h): hit counting and
// n-th-hit firing, flag parsing, NaN injection, divergence and non-finite
// verdicts, and the thread-local scoped monitor the epoch trainers report
// to.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/fault.h"
#include "src/common/health.h"

namespace openea {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::DisarmAll(); }
  void TearDown() override { fault::DisarmAll(); }
};

TEST_F(FaultTest, InertPointNeverFires) {
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(FAULT_POINT("never/armed"));
  }
  EXPECT_EQ(fault::FiredCount("never/armed"), 0u);
}

TEST_F(FaultTest, FiresExactlyOnNthHit) {
  fault::Spec spec;
  spec.point = "t/nth";
  spec.hit = 3;
  fault::Arm(spec);
  EXPECT_FALSE(fault::Hit("t/nth"));
  EXPECT_FALSE(fault::Hit("t/nth"));
  EXPECT_TRUE(fault::Hit("t/nth"));
  EXPECT_FALSE(fault::Hit("t/nth"));  // Not repeat: fires once.
  EXPECT_EQ(fault::HitCount("t/nth"), 4u);
  EXPECT_EQ(fault::FiredCount("t/nth"), 1u);
}

TEST_F(FaultTest, RepeatFiresOnEveryHitFromN) {
  fault::Spec spec;
  spec.point = "t/repeat";
  spec.hit = 2;
  spec.repeat = true;
  fault::Arm(spec);
  EXPECT_FALSE(fault::Hit("t/repeat"));
  EXPECT_TRUE(fault::Hit("t/repeat"));
  EXPECT_TRUE(fault::Hit("t/repeat"));
  EXPECT_EQ(fault::FiredCount("t/repeat"), 2u);
}

TEST_F(FaultTest, DisarmStopsFiring) {
  fault::Spec spec;
  spec.point = "t/disarm";
  spec.repeat = true;
  fault::Arm(spec);
  EXPECT_TRUE(fault::Hit("t/disarm"));
  fault::Disarm("t/disarm");
  EXPECT_FALSE(fault::Hit("t/disarm"));
}

TEST_F(FaultTest, ArmFromFlagParsesAllForms) {
  ASSERT_TRUE(fault::ArmFromFlag("a/b:1").ok());
  ASSERT_TRUE(fault::ArmFromFlag("a/c:5:kill").ok());
  ASSERT_TRUE(fault::ArmFromFlag("a/d:2:fail:repeat").ok());
  EXPECT_FALSE(fault::ArmFromFlag("").ok());
  EXPECT_FALSE(fault::ArmFromFlag("nohit").ok());
  EXPECT_FALSE(fault::ArmFromFlag("a/b:0").ok());          // 1-based.
  EXPECT_FALSE(fault::ArmFromFlag("a/b:x").ok());          // Not a number.
  EXPECT_FALSE(fault::ArmFromFlag("a/b:1:explode").ok());  // Unknown action.
  // The well-formed ones actually fire.
  EXPECT_TRUE(fault::Hit("a/b"));
}

TEST_F(FaultTest, InjectNaNPoisonsEveryElement) {
  std::vector<float> values = {1.0f, -2.0f, 3.0f};
  fault::InjectNaN(values);
  for (float v : values) EXPECT_TRUE(std::isnan(v));
}

TEST(HealthMonitorTest, HealthyLossesStayHealthy) {
  health::HealthMonitor monitor;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(monitor.Observe(1.0 / (1 + i)), health::Verdict::kHealthy);
  }
  EXPECT_EQ(monitor.worst(), health::Verdict::kHealthy);
}

TEST(HealthMonitorTest, NonFiniteLossIsFlaggedImmediately) {
  health::HealthMonitor monitor;
  EXPECT_EQ(monitor.Observe(std::numeric_limits<double>::quiet_NaN()),
            health::Verdict::kNonFinite);
  EXPECT_EQ(monitor.worst(), health::Verdict::kNonFinite);
  health::HealthMonitor monitor2;
  EXPECT_EQ(monitor2.Observe(std::numeric_limits<double>::infinity()),
            health::Verdict::kNonFinite);
}

TEST(HealthMonitorTest, LossBlowupIsDivergence) {
  health::GuardConfig config;
  config.min_observations = 4;
  config.divergence_factor = 10.0;
  health::HealthMonitor monitor(config);
  for (int i = 0; i < 6; ++i) monitor.Observe(0.5);
  EXPECT_EQ(monitor.worst(), health::Verdict::kHealthy);
  EXPECT_EQ(monitor.Observe(50.0), health::Verdict::kDiverged);
  EXPECT_EQ(monitor.worst(), health::Verdict::kDiverged);
}

TEST(HealthMonitorTest, EarlyFluctuationBelowFloorIsNotDivergence) {
  // Near-zero early losses must not turn ordinary jitter into a verdict:
  // the comparison floor keeps 1e-8 -> 1e-5 from reading as a 1000x blowup.
  health::HealthMonitor monitor;
  for (int i = 0; i < 6; ++i) monitor.Observe(1e-8);
  EXPECT_EQ(monitor.Observe(1e-5), health::Verdict::kHealthy);
}

TEST(HealthMonitorTest, EachLossKindHasItsOwnWindow) {
  // BootEA's epochs: a limit-loss pair epoch (3 to 5.8) every epoch and a
  // calibration epoch (0.2 to 0.46) after each evaluation. Judged against
  // one shared window the pair losses would read as a 10x blowup over the
  // calibration minimum.
  health::HealthMonitor monitor;
  for (int i = 0; i < 15; ++i) {
    EXPECT_EQ(monitor.Observe(3.0 + 0.2 * i, "pair"),
              health::Verdict::kHealthy)
        << i;
    if (i % 2 == 1) {
      EXPECT_EQ(monitor.Observe(0.2 + 0.02 * i, "calibrate"),
                health::Verdict::kHealthy)
          << i;
    }
  }
  EXPECT_EQ(monitor.worst(), health::Verdict::kHealthy);
  EXPECT_EQ(monitor.observations(), 22u);
  // A 10x jump within one kind still diverges ...
  EXPECT_EQ(monitor.Observe(5.0, "calibrate"), health::Verdict::kDiverged);
  EXPECT_EQ(monitor.Observe(60.0, "pair"), health::Verdict::kDiverged);
  // ... and a non-finite loss of any kind is still flagged.
  EXPECT_EQ(monitor.Observe(std::numeric_limits<double>::quiet_NaN(),
                            "calibrate"),
            health::Verdict::kNonFinite);
  EXPECT_EQ(monitor.worst(), health::Verdict::kNonFinite);
}

TEST(HealthMonitorTest, TooFewObservationsNeverDiverge) {
  health::GuardConfig config;
  config.min_observations = 4;
  health::HealthMonitor monitor(config);
  monitor.Observe(0.1);
  EXPECT_EQ(monitor.Observe(1e9), health::Verdict::kHealthy);
}

TEST(HealthMonitorTest, ObserveTensorFlagsNonFinite) {
  health::HealthMonitor monitor;
  const std::vector<float> good = {1.0f, 2.0f};
  EXPECT_EQ(monitor.ObserveTensor(good), health::Verdict::kHealthy);
  const std::vector<float> bad = {1.0f,
                                  std::numeric_limits<float>::quiet_NaN()};
  EXPECT_EQ(monitor.ObserveTensor(bad), health::Verdict::kNonFinite);
}

TEST(HealthMonitorTest, WorstOrdersVerdictsBySeverity) {
  using health::Verdict;
  EXPECT_EQ(health::Worst(Verdict::kHealthy, Verdict::kDiverged),
            Verdict::kDiverged);
  EXPECT_EQ(health::Worst(Verdict::kNonFinite, Verdict::kDiverged),
            Verdict::kNonFinite);
  EXPECT_STREQ(health::VerdictName(Verdict::kHealthy), "healthy");
  EXPECT_STREQ(health::VerdictName(Verdict::kDiverged), "diverged");
  EXPECT_STREQ(health::VerdictName(Verdict::kNonFinite), "non_finite");
}

TEST(ScopedHealthMonitorTest, ReportLossReachesActiveMonitorAndNests) {
  EXPECT_EQ(health::ActiveMonitor(), nullptr);
  // Without a monitor, only the free finiteness check runs.
  EXPECT_EQ(health::ReportLoss(1.0, "pair"), health::Verdict::kHealthy);
  EXPECT_EQ(
      health::ReportLoss(std::numeric_limits<double>::infinity(), "pair"),
      health::Verdict::kNonFinite);

  health::HealthMonitor outer;
  {
    health::ScopedHealthMonitor outer_scope(&outer);
    EXPECT_EQ(health::ActiveMonitor(), &outer);
    health::ReportLoss(0.5, "pair");
    {
      health::HealthMonitor inner;
      health::ScopedHealthMonitor inner_scope(&inner);
      EXPECT_EQ(health::ActiveMonitor(), &inner);
      health::ReportLoss(std::numeric_limits<double>::quiet_NaN(), "pair");
      EXPECT_EQ(inner.worst(), health::Verdict::kNonFinite);
    }
    // Inner verdicts do not leak into the outer monitor.
    EXPECT_EQ(health::ActiveMonitor(), &outer);
    EXPECT_EQ(outer.worst(), health::Verdict::kHealthy);
    EXPECT_EQ(outer.observations(), 1u);
  }
  EXPECT_EQ(health::ActiveMonitor(), nullptr);
}

}  // namespace
}  // namespace openea

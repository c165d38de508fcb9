#include <gtest/gtest.h>

#include "ntco/common/error.hpp"
#include "ntco/net/link.hpp"
#include "ntco/net/path.hpp"

namespace ntco::net {
namespace {

TEST(FixedLink, TransferTimeIsLatencyPlusSerialisation) {
  FixedLink link(Duration::millis(10), DataRate::megabits_per_second(8));
  // 1 MB over 8 Mb/s = 1 s serialisation + 10 ms latency.
  EXPECT_EQ(link.transfer_time(DataSize::megabytes(1)),
            Duration::millis(1010));
}

TEST(FixedLink, ZeroPayloadStillPaysLatency) {
  FixedLink link(Duration::millis(7), DataRate::megabits_per_second(10));
  EXPECT_EQ(link.transfer_time(DataSize::zero()), Duration::millis(7));
}

TEST(FixedLink, InvalidConstructionThrows) {
  EXPECT_THROW(FixedLink(-Duration::millis(1),
                         DataRate::megabits_per_second(1)),
               ContractViolation);
  EXPECT_THROW(FixedLink(Duration::millis(1), DataRate::bits_per_second(0)),
               ContractViolation);
}

TEST(StochasticLink, SamplesStayInPlausibleEnvelope) {
  StochasticLink link(Duration::millis(20), 0.3,
                      DataRate::megabits_per_second(10), 0.2, Rng(1));
  for (int i = 0; i < 2000; ++i) {
    const auto lat = link.sample_latency();
    EXPECT_GT(lat, Duration::zero());
    EXPECT_LT(lat, Duration::seconds(2));
    const auto rate = link.sample_rate();
    EXPECT_GE(rate.to_mbps(), 0.5);                // 5% floor
    EXPECT_LE(rate.to_mbps(), 10.0 * (1 + 3 * 0.2) + 1e-9);  // +3 sigma cap
  }
}

TEST(StochasticLink, MedianLatencyIsApproximatelyNominal) {
  StochasticLink link(Duration::millis(40), 0.4,
                      DataRate::megabits_per_second(10), 0.1, Rng(2));
  std::vector<double> lats;
  for (int i = 0; i < 4001; ++i)
    lats.push_back(link.sample_latency().to_millis());
  std::sort(lats.begin(), lats.end());
  EXPECT_NEAR(lats[2000], 40.0, 4.0);  // median of lognormal = nominal
}

TEST(StochasticLink, DeterministicGivenSeed) {
  StochasticLink a(Duration::millis(10), 0.3,
                   DataRate::megabits_per_second(5), 0.1, Rng(42));
  StochasticLink b(Duration::millis(10), 0.3,
                   DataRate::megabits_per_second(5), 0.1, Rng(42));
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(a.transfer_time(DataSize::kilobytes(100)),
              b.transfer_time(DataSize::kilobytes(100)));
}

TEST(NetworkPath, RoundTripUsesBothLinks) {
  auto path = make_fixed_path(profile_wifi());
  const auto p = profile_wifi();
  const auto expected = p.one_way_latency + DataSize::megabytes(1) / p.uplink +
                        p.one_way_latency +
                        DataSize::kilobytes(10) / p.downlink;
  EXPECT_EQ(path.round_trip_time(DataSize::megabytes(1),
                                 DataSize::kilobytes(10)),
            expected);
}

TEST(Transport, ZeroSizeTransfersPayFullOneWayLatency) {
  // Golden contract pinned on the Transport interface (see transport.hpp):
  // a zero-size transfer still pays the one-way latency — a request header
  // crosses the network even when the payload stays local. FabricPath's
  // agreement with this contract is asserted in fabric_test.cpp.
  auto path = make_path(spec_4g());
  Transport& t = path;
  EXPECT_EQ(t.uplink_time(DataSize::zero()), spec_4g().up.latency);
  EXPECT_EQ(t.downlink_time(DataSize::zero()), spec_4g().down.latency);
  EXPECT_EQ(t.round_trip_time(DataSize::zero(), DataSize::zero()),
            spec_4g().up.latency + spec_4g().down.latency);
}

TEST(Transport, SpecExposesNominalPlanningFigures) {
  // Planners (core::OffloadController::make_environment) read the nominal
  // figures through Transport::spec(); both construction paths must agree.
  auto from_spec = make_path(spec_wifi());
  auto from_links = NetworkPath(
      "WiFi",
      std::make_unique<FixedLink>(spec_wifi().up.latency, spec_wifi().up.rate),
      std::make_unique<FixedLink>(spec_wifi().down.latency,
                                  spec_wifi().down.rate));
  EXPECT_EQ(from_spec.spec().up.rate, from_links.spec().up.rate);
  EXPECT_EQ(from_spec.spec().down.latency, from_links.spec().down.latency);
  EXPECT_EQ(from_spec.name(), "WiFi");
}

TEST(Profiles, AreOrderedByGeneration) {
  // Each generation improves uplink and latency.
  EXPECT_LT(profile_3g().uplink, profile_4g().uplink);
  EXPECT_LT(profile_4g().uplink, profile_5g().uplink);
  EXPECT_GT(profile_3g().one_way_latency, profile_4g().one_way_latency);
  EXPECT_GT(profile_4g().one_way_latency, profile_5g().one_way_latency);
  // Edge LAN is the fastest, lowest-latency hop.
  EXPECT_LT(profile_edge_lan().one_way_latency,
            profile_wifi().one_way_latency);
}

TEST(Profiles, StochasticPathIsDeterministicPerSeed) {
  auto a = make_stochastic_path(profile_4g(), Rng(9));
  auto b = make_stochastic_path(profile_4g(), Rng(9));
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(a.uplink().transfer_time(DataSize::kilobytes(500)),
              b.uplink().transfer_time(DataSize::kilobytes(500)));
}

}  // namespace
}  // namespace ntco::net

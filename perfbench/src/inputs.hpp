#pragma once
// Workload inputs, generated before the program sees them: a fixed catalogue
// of workflow images with fixed popularity ranks, and from --seed the
// arrival stream (virtual instants plus the image each arrival invokes).
// The program receives only these generated inputs; its own configuration
// seed is fixed.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "api/client.hpp"
#include "campaign/arrivals.hpp"
#include "circuit/library.hpp"

namespace perfbench {

struct Tenant {
  const char* name;
  qon::api::Priority priority;
  qon::circuit::BenchmarkFamily family;
  int width;
  int shots;
  double fidelity_weight;
  double weight;  ///< share of arrivals
};

/// Interactive / standard / batch tenants with distinct fidelity weights.
std::vector<Tenant> three_tenants();

struct Image {
  std::size_t tenant;
  qon::workflow::HybridTask task;
};

struct Arrival {
  double at;          ///< virtual seconds
  std::size_t image;  ///< index into Inputs::images
};

struct Inputs {
  std::vector<Tenant> tenants;
  std::vector<Image> images;
  std::vector<Arrival> arrivals;
};

struct InputSpec {
  qon::campaign::ArrivalSpec arrivals;
  std::size_t count = 0;               ///< arrivals to generate
  /// Images beyond the first per tenant vary family and width, so a large
  /// image set has a spread of transpile costs. Popularity within a tenant
  /// is Zipf(1): rank r is drawn with weight 1/r.
  std::size_t images_per_tenant = 1;
};

Inputs make_inputs(const InputSpec& spec, std::uint64_t seed);

/// Creates and deploys every image; returns their ids in Inputs order.
qon::api::Result<std::vector<qon::workflow::ImageId>> deploy_images(
    qon::api::QonductorClient& client, const Inputs& inputs);

/// Times extra set-ups until their summed wall reaches `budget_s`: each
/// constructs a client from `config` and creates and deploys every image;
/// the client is torn down untimed. Stops early once the set-ups and
/// teardowns together have taken four times the budget. Returns wall
/// seconds per set-up.
std::vector<double> time_setups(const qon::core::QonductorConfig& config, const Inputs& inputs,
                                double budget_s);

/// The invoke request for one arrival.
qon::api::InvokeRequest make_request(const Inputs& inputs, const Arrival& arrival,
                                     const std::vector<qon::workflow::ImageId>& ids);

}  // namespace perfbench

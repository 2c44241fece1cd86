#include "inputs.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/rng.hpp"

namespace perfbench {

namespace api = qon::api;
namespace circuit = qon::circuit;

std::vector<Tenant> three_tenants() {
  return {
      {"interactive-qft", api::Priority::kInteractive, circuit::BenchmarkFamily::kQft, 4, 512,
       0.8, 0.15},
      {"standard-ghz", api::Priority::kStandard, circuit::BenchmarkFamily::kGhz, 5, 1024, 0.5,
       0.50},
      {"batch-random", api::Priority::kBatch, circuit::BenchmarkFamily::kRandom, 7, 4000, 0.2,
       0.35},
  };
}

/// Seeds the image catalogue, which is the same for every --seed: a seed
/// then changes the traffic, not the circuits it carries.
constexpr std::uint64_t kCatalogueSeed = 0x51a7e;

Inputs make_inputs(const InputSpec& spec, std::uint64_t seed) {
  Inputs in;
  in.tenants = three_tenants();
  qon::Rng image_rng(kCatalogueSeed);
  qon::Rng root(seed);
  qon::Rng arrival_rng = root.split();
  qon::Rng mix_rng = root.split();

  const std::vector<circuit::BenchmarkFamily> families = circuit::all_benchmark_families();
  for (std::size_t t = 0; t < in.tenants.size(); ++t) {
    const Tenant& tenant = in.tenants[t];
    for (std::size_t k = 0; k < spec.images_per_tenant; ++k) {
      circuit::BenchmarkFamily family = tenant.family;
      int width = tenant.width;
      if (k > 0) {
        family = families[static_cast<std::size_t>(
            image_rng.uniform_int(0, static_cast<std::int64_t>(families.size()) - 1))];
        width = static_cast<int>(image_rng.uniform_int(3, 8));
      }
      const std::string name = std::string(tenant.name) + "-" + std::to_string(k);
      in.images.push_back(
          {t, qon::workflow::HybridTask::quantum(
                  name, circuit::make_benchmark(family, width, image_rng()), tenant.shots)});
    }
  }

  // Zipf popularity over each tenant's images, as a cumulative table, and
  // the catalogue's rank -> image permutation per tenant.
  std::vector<std::vector<std::size_t>> by_rank(in.tenants.size());
  for (std::vector<std::size_t>& ranks : by_rank) {
    for (std::size_t k = 0; k < spec.images_per_tenant; ++k) ranks.push_back(k);
    image_rng.shuffle(ranks);
  }
  std::vector<double> cdf(spec.images_per_tenant);
  double total = 0.0;
  for (std::size_t r = 0; r < cdf.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  std::vector<double> weights;
  for (const Tenant& tenant : in.tenants) weights.push_back(tenant.weight);

  const qon::campaign::ArrivalProcess process(spec.arrivals);
  in.arrivals.reserve(spec.count);
  double t = 0.0;
  while (in.arrivals.size() < spec.count) {
    t = process.next(t, 1e300, arrival_rng);
    const std::size_t tenant = mix_rng.weighted_index(weights);
    const double u = mix_rng.uniform() * total;
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    in.arrivals.push_back(
        {t, tenant * spec.images_per_tenant + by_rank[tenant][std::min(rank, cdf.size() - 1)]});
  }
  return in;
}

api::Result<std::vector<qon::workflow::ImageId>> deploy_images(api::QonductorClient& client,
                                                               const Inputs& inputs) {
  std::vector<qon::workflow::ImageId> ids;
  ids.reserve(inputs.images.size());
  for (const Image& image : inputs.images) {
    api::CreateWorkflowRequest create;
    create.name = image.task.name;
    create.tasks.push_back(image.task);
    auto created = client.createWorkflow(std::move(create));
    if (!created.ok()) return created.status();
    api::DeployRequest deploy;
    deploy.image = created->image;
    auto deployed = client.deploy(deploy);
    if (!deployed.ok()) return deployed.status();
    ids.push_back(created->image);
  }
  return ids;
}

std::vector<double> time_setups(const qon::core::QonductorConfig& config, const Inputs& inputs,
                                double budget_s) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> seconds;
  double timed_s = 0.0;
  const auto first = Clock::now();
  while (timed_s < budget_s &&
         std::chrono::duration<double>(Clock::now() - first).count() < 4.0 * budget_s) {
    const auto start = Clock::now();
    api::QonductorClient client(config);
    const bool deployed = deploy_images(client, inputs).ok();
    seconds.push_back(std::chrono::duration<double>(Clock::now() - start).count());
    timed_s += seconds.back();
    if (!deployed) break;  // the measured runs report the failure
  }
  return seconds;
}

api::InvokeRequest make_request(const Inputs& inputs, const Arrival& arrival,
                                const std::vector<qon::workflow::ImageId>& ids) {
  const Tenant& tenant = inputs.tenants[inputs.images[arrival.image].tenant];
  api::InvokeRequest request;
  request.image = ids[arrival.image];
  request.preferences.priority = tenant.priority;
  request.preferences.fidelity_weight = tenant.fidelity_weight;
  return request;
}

}  // namespace perfbench

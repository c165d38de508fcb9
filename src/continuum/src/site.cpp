#include "ntco/continuum/site.hpp"

#include <utility>

#include "ntco/common/contracts.hpp"

namespace ntco::continuum {

Site::Site(SiteId id, std::string name, SiteTier tier,
           serverless::Platform& faas, serverless::FunctionId fn,
           net::Transport& ue_route, SiteConfig cfg)
    : id_(id),
      name_(std::move(name)),
      tier_(tier),
      kind_(BackendKind::Serverless),
      faas_(&faas),
      fn_(fn),
      route_(&ue_route),
      cfg_(cfg) {}

Site::Site(SiteId id, std::string name, SiteTier tier,
           edgesim::EdgePlatform& edge, net::Transport& ue_route)
    : id_(id),
      name_(std::move(name)),
      tier_(tier),
      kind_(BackendKind::Edge),
      edge_(&edge),
      route_(&ue_route) {}

Duration Site::est_exec(Cycles work) const {
  if (kind_ == BackendKind::Serverless) {
    const auto& spec = faas_->spec(fn_);
    return faas_->exec_time(spec.memory, work, spec.parallel_fraction);
  }
  return edge_->exec_time(work);
}

Duration Site::est_wait(Cycles work) const {
  if (kind_ == BackendKind::Serverless) {
    // The platform scales; the account-concurrency throttle only binds at
    // loads far beyond what a federation routes to one function.
    return Duration::zero();
  }
  // FIFO pool: the backlog drains at `servers` jobs per service time. Use
  // this job's own service time as the per-slot proxy — deterministic and
  // monotone in backlog depth, which is what placement needs.
  const auto& cfg = edge_->config();
  const Duration per = cfg.request_overhead + edge_->exec_time(work);
  return per * (static_cast<double>(edge_->queued()) /
                static_cast<double>(cfg.servers));
}

Money Site::est_cost(Cycles work, TimePoint when) const {
  if (kind_ == BackendKind::Serverless) {
    const auto& spec = faas_->spec(fn_);
    const Duration exec =
        faas_->exec_time(spec.memory, work, spec.parallel_fraction);
    return faas_->invocation_cost(spec.memory, exec, when, cfg_.faas_tier);
  }
  const double hours = edge_->exec_time(work).to_seconds() / 3600.0;
  return edge_->config().infra_cost_per_server_hour * hours;
}

double Site::utilization() const {
  if (kind_ == BackendKind::Serverless) {
    const auto limit = faas_->config().account_concurrency;
    return static_cast<double>(faas_->concurrency_in_use()) /
           static_cast<double>(limit);
  }
  return static_cast<double>(edge_->busy() + edge_->queued()) /
         static_cast<double>(edge_->config().servers);
}

Ticket Site::submit(Cycles work, Duration exec_credit, Callback done) {
  NTCO_EXPECTS(done != nullptr);
  if (kind_ == BackendKind::Serverless) {
    return faas_->resume(
        fn_, work, exec_credit,
        [done = std::move(done)](const serverless::InvocationResult& r) {
          SiteResult s;
          s.submitted = r.submitted;
          s.started = r.started;
          s.finished = r.finished;
          s.queue_wait = r.queue_wait;
          s.exec_time = r.exec_time;
          s.exec_credit = r.exec_credit;
          s.cost = r.cost;
          s.preempted = r.preempted;
          done(s);
        },
        cfg_.faas_tier);
  }
  // Capture the rate by value: the site may move inside its federation's
  // registry while the job runs. Rate and callback fit the edge
  // platform's inline callback, so an edge job allocates nothing here.
  const Money rate = edge_->config().infra_cost_per_server_hour;
  return edge_->submit_resumed(
      work, exec_credit,
      [rate, done = std::move(done)](const edgesim::EdgeResult& r) {
        SiteResult s;
        s.submitted = r.submitted;
        s.started = r.started;
        s.finished = r.finished;
        s.queue_wait = r.queue_wait;
        s.exec_time = r.exec_time;
        s.exec_credit = r.exec_credit;
        s.cost = rate * (r.exec_time.to_seconds() / 3600.0);
        s.preempted = r.preempted;
        done(s);
      });
}

bool Site::checkpoint(Ticket t) {
  if (kind_ == BackendKind::Serverless) return faas_->checkpoint_preempt(t);
  return edge_->checkpoint(t);
}

}  // namespace ntco::continuum

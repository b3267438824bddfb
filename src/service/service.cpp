#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <memory>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/sweep.hpp"

namespace tac3d::service {

namespace proto = protocol;

namespace {

/// Registry handles of the service's live-introspection metrics (the
/// kQueryMetrics wire stream and tac3d_top read these by name).
struct ServiceMetrics {
  obs::Gauge queue_depth{"service/queue_depth"};
  obs::Gauge active_jobs{"service/active_jobs"};
  obs::Gauge cores_in_use{"service/cores_in_use"};
  obs::HistogramMetric admission_wait{"service/admission_wait_ms"};
  obs::HistogramMetric ttfr{"service/ttfr_ms"};
  obs::Counter done{"service/scenarios_done"};
  obs::Counter failed{"service/scenarios_failed"};
  obs::Counter cancelled{"service/scenarios_cancelled"};
  obs::Counter lent{"service/scenarios_lent"};
  obs::Counter reclaims{"service/reclaims"};
};

ServiceMetrics& sm() {
  static ServiceMetrics m;
  return m;
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// A scenario in a worker's hands. Its instance and session are built on
/// first claim and live on the heap, so a session one worker puts down
/// resumes, unmoved, on whichever worker claims it next.
struct Task {
  struct Run {
    explicit Run(sim::ScenarioInstance in)
        : instance(std::move(in)), session(instance.session()) {}
    sim::ScenarioInstance instance;
    sim::SimulationSession session;
  };
  std::size_t index = 0;
  std::unique_ptr<Run> run;  ///< null until started
};

}  // namespace

/// One submitted request. Lifecycle: kQueued (admission FIFO) ->
/// kRunning (cores granted, workers claim tasks in LPT order) ->
/// kDone/kCancelled (finalized, erased from the service's books).
///
/// Lock protocol: scheduling state (state, next, parked, active,
/// counters) is guarded by the service-wide mu_; event emission is
/// serialized by the per-job emit_mu so a job's completion can never
/// overtake its last result even when two workers finish its final
/// scenarios concurrently. Lock order is always emit_mu before mu_.
struct SweepService::Job {
  enum class State { kQueued, kRunning, kCancelled };

  std::uint32_t id = 0;
  State state = State::kQueued;
  int cores_requested = 1;
  int cores_granted = 0;
  std::vector<sim::Scenario> scenarios;
  std::vector<std::size_t> order;  ///< task indices, longest-first (LPT)
  std::size_t next = 0;            ///< next unclaimed position in order
  std::vector<Task> parked;        ///< put down mid-run; claimed first
  int active = 0;  ///< workers inside a task, lent ones included
  std::uint32_t completed = 0, failed = 0, cancelled = 0;
  bool was_cancelled = false;
  bool finalized = false;  ///< completion emitted; books already closed
  EventFn on_event;
  std::mutex emit_mu;
  /// Telemetry timestamps (guarded by mu_ like the scheduling state).
  std::chrono::steady_clock::time_point submitted{};
  bool ttfr_recorded = false;

  std::size_t pending() const { return parked.size() + order.size() - next; }
  /// A pending scenario within the grant.
  bool claimable() const {
    return state == State::kRunning && pending() > 0 &&
           active < cores_granted;
  }
  bool finished() const { return pending() == 0 && active == 0; }
};

SweepService::SweepService(ServiceOptions opts)
    : bank_(opts.bank ? std::move(opts.bank)
                      : std::make_shared<sim::ScenarioBank>()),
      budget_(std::max(1, sim::resolve_jobs(opts.core_budget))),
      slots_(static_cast<std::size_t>(budget_)) {
  workers_.reserve(slots_.size());
  for (Worker& w : slots_) {
    workers_.emplace_back([this, &w] { worker_loop(w); });
  }
}

SweepService::~SweepService() { stop(/*cancel_pending=*/true); }

std::optional<proto::SubmitAckMsg> SweepService::submit(
    std::vector<sim::Scenario> scenarios, int cores_requested,
    EventFn on_event) {
  auto job = std::make_shared<Job>();
  job->scenarios = std::move(scenarios);
  job->on_event = std::move(on_event);

  // The sweep runner's preamble (labels, LPT costs): within the job, the
  // longest-estimated scenario is claimed first so one expensive
  // straggler cannot serialize the job's tail.
  const std::vector<double> cost =
      sim::prepare_sweep_scenarios(job->scenarios, bank_.get());
  job->order.resize(job->scenarios.size());
  for (std::size_t i = 0; i < job->order.size(); ++i) job->order[i] = i;
  std::stable_sort(job->order.begin(), job->order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return cost[a] > cost[b];
                   });

  proto::SubmitAckMsg ack;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (draining_ || stopping_) return std::nullopt;
    job->submitted = std::chrono::steady_clock::now();
    job->id = next_job_id_++;
    job->cores_requested = std::clamp(
        cores_requested, 1,
        std::max(1, std::min(budget_,
                             static_cast<int>(job->scenarios.size()))));
    queue_.push_back(job);
    try_admit_locked();
    ack.job_id = job->id;
    ack.admitted = job->state == Job::State::kRunning;
    if (!ack.admitted) {
      const auto it = std::find(queue_.begin(), queue_.end(), job);
      ack.queue_position = static_cast<std::uint32_t>(it - queue_.begin());
    }
  }
  work_cv_.notify_all();

  // An empty job has nothing to schedule: complete it right away so the
  // client's stream still terminates.
  if (job->scenarios.empty()) {
    std::lock_guard<std::mutex> em(job->emit_mu);
    bool finalize = false;
    proto::SweepCompleteMsg ev;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!job->finalized) {
        ev = finalize_locked(job);
        finalize = true;
      }
    }
    if (finalize) emit(job, ev);
  }
  return ack;
}

bool SweepService::cancel(std::uint32_t job_id) {
  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& j : queue_) {
      if (j->id == job_id) job = j;
    }
    for (const auto& j : running_) {
      if (j->id == job_id) job = j;
    }
  }
  if (!job) return false;

  std::vector<Task> dropped;  // freed after the locks are released
  std::lock_guard<std::mutex> em(job->emit_mu);
  bool finalize = false;
  proto::SweepCompleteMsg ev;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (job->finalized) return true;
    switch (job->state) {
      case Job::State::kQueued: {
        const auto it = std::find(queue_.begin(), queue_.end(), job);
        if (it == queue_.end()) return false;  // finalized meanwhile
        queue_.erase(it);
        job->state = Job::State::kCancelled;
        job->was_cancelled = true;
        job->cancelled =
            static_cast<std::uint32_t>(job->scenarios.size());
        cancelled_total_ += job->cancelled;
        ev = finalize_locked(job);
        finalize = true;
        break;
      }
      case Job::State::kRunning: {
        const auto skipped = static_cast<std::uint32_t>(job->pending());
        job->next = job->order.size();
        dropped.swap(job->parked);
        job->cancelled += skipped;
        cancelled_total_ += skipped;
        job->state = Job::State::kCancelled;
        job->was_cancelled = true;
        // In-flight scenarios stop at their next control interval.
        for (Worker& w : slots_) {
          if (w.job == job) w.stop.store(true, std::memory_order_relaxed);
        }
        if (job->active == 0) {
          ev = finalize_locked(job);
          finalize = true;
        }
        // else: the last in-flight worker finalizes on its way out.
        break;
      }
      case Job::State::kCancelled:
        return true;
    }
  }
  if (finalize) {
    emit(job, ev);
    work_cv_.notify_all();
  }
  return true;
}

void SweepService::drain() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    draining_ = true;
  }
  stop(/*cancel_pending=*/false);
}

proto::StatusMsg SweepService::status() const {
  proto::StatusMsg st;
  {
    std::lock_guard<std::mutex> lk(mu_);
    st.active_jobs = static_cast<std::uint32_t>(running_.size());
    st.queued_jobs = static_cast<std::uint32_t>(queue_.size());
    st.scenarios_completed = done_total_;
    st.scenarios_failed = failed_total_;
    st.scenarios_cancelled = cancelled_total_;
    st.core_budget = static_cast<std::uint32_t>(budget_);
    st.cores_in_use = static_cast<std::uint32_t>(cores_in_use_);
    st.draining = draining_;
  }
  st.bank = bank_->counters();
  return st;
}

void SweepService::try_admit_locked() {
  // FIFO with head-of-line blocking: a large request waits for cores
  // rather than being overtaken forever by small ones (and is never
  // refused — the admission queue is the backpressure).
  bool admitted = false;
  while (!queue_.empty()) {
    const std::shared_ptr<Job>& head = queue_.front();
    const int grant = head->cores_requested;
    if (cores_in_use_ + grant > budget_) break;
    head->cores_granted = grant;
    head->state = Job::State::kRunning;
    sm().admission_wait.record(ms_since(head->submitted));
    cores_in_use_ += grant;
    running_.push_back(head);
    queue_.erase(queue_.begin());
    admitted = true;
  }
  if (admitted) reclaim_locked();
  sm().queue_depth.set(static_cast<double>(queue_.size()));
  sm().active_jobs.set(static_cast<double>(running_.size()));
  sm().cores_in_use.set(static_cast<double>(cores_in_use_));
}

std::shared_ptr<SweepService::Job> SweepService::next_job_locked(
    bool& lent) const {
  for (const auto& j : running_) {
    if (j->claimable()) return j;
  }
  // Nothing within a grant: lend to the oldest job with work left. A
  // queued job waits for grants, not workers: admitting it reclaims.
  for (const auto& j : running_) {
    if (j->state == Job::State::kRunning && j->pending() > 0) {
      lent = true;
      return j;
    }
  }
  return nullptr;
}

void SweepService::reclaim_locked() {
  // Pending scenarios within their grants, less the workers that are
  // free or already putting a scenario down: the rest need lent workers.
  std::ptrdiff_t need = 0;
  for (const auto& j : running_) {
    if (j->state != Job::State::kRunning) continue;
    need += static_cast<std::ptrdiff_t>(std::min<std::size_t>(
        j->pending(),
        static_cast<std::size_t>(std::max(0, j->cores_granted - j->active))));
  }
  for (const Worker& w : slots_) {
    if (!w.job || w.stop.load(std::memory_order_relaxed)) --need;
  }
  // Stop the latest claims of jobs running beyond their grants: the
  // scenarios that have run the least, so a job's earliest results are
  // not the ones put down.
  const auto beyond_grant = [&](const std::shared_ptr<Job>& j) {
    int n = j->active - j->cores_granted;
    for (const Worker& w : slots_) {
      if (w.job == j && w.stop.load(std::memory_order_relaxed)) --n;
    }
    return n;
  };
  for (; need > 0; --need) {
    Worker* latest = nullptr;
    for (Worker& w : slots_) {
      if (w.job && !w.stop.load(std::memory_order_relaxed) &&
          beyond_grant(w.job) > 0 &&
          (!latest || w.claimed > latest->claimed)) {
        latest = &w;
      }
    }
    if (!latest) return;
    latest->stop.store(true, std::memory_order_relaxed);
  }
}

proto::SweepCompleteMsg SweepService::finalize_locked(
    const std::shared_ptr<Job>& job) {
  job->finalized = true;
  const auto it = std::find(running_.begin(), running_.end(), job);
  if (it != running_.end()) {
    running_.erase(it);
    cores_in_use_ -= job->cores_granted;
    job->cores_granted = 0;
    try_admit_locked();
  }
  if (job->cancelled > 0) sm().cancelled.add(job->cancelled);
  sm().queue_depth.set(static_cast<double>(queue_.size()));
  sm().active_jobs.set(static_cast<double>(running_.size()));
  sm().cores_in_use.set(static_cast<double>(cores_in_use_));
  proto::SweepCompleteMsg ev;
  ev.job_id = job->id;
  ev.completed = job->completed;
  ev.failed = job->failed;
  ev.cancelled = job->cancelled;
  ev.was_cancelled = job->was_cancelled;
  if (running_.empty() && queue_.empty()) idle_cv_.notify_all();
  return ev;
}

void SweepService::emit(const std::shared_ptr<Job>& job,
                        const proto::Message& ev) {
  // Caller holds job->emit_mu. A throwing sink (dead socket, broken
  // client) must not unwind through a worker.
  if (!job->on_event) return;
  try {
    job->on_event(ev);
  } catch (...) {
  }
}

void SweepService::worker_loop(Worker& self) {
  for (;;) {
    std::shared_ptr<Job> job;
    Task task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      bool lent = false;
      work_cv_.wait(lk, [&] {
        job = next_job_locked(lent);
        return job || stopping_;
      });
      if (!job) return;
      if (!job->parked.empty()) {
        task = std::move(job->parked.back());
        job->parked.pop_back();
      } else {
        task.index = job->order[job->next++];
      }
      ++job->active;
      self.job = job;
      self.claimed = ++claims_;
      self.stop.store(false, std::memory_order_relaxed);
      if (lent) sm().lent.add();
    }

    proto::ScenarioResultMsg result;
    result.job_id = job->id;
    result.index = static_cast<std::uint32_t>(task.index);
    bool stopped = false;
    try {
      obs::TraceSpan job_span("sweep/job");
      if (!task.run) {
        task.run = std::make_unique<Task::Run>(
            bank_->prepare(job->scenarios[task.index]));
      }
      sim::SimulationSession& session = task.run->session;
      session.run_to_end(&self.stop);
      stopped = !session.done();
      if (!stopped) {
        result.metrics = session.metrics();
        result.ok = 1;
        sim::publish_session(session, session.solver_stats());
      }
    } catch (const std::exception& e) {
      result.error = e.what();
    } catch (...) {
      result.error = "unknown error";
    }

    std::unique_lock<std::mutex> em(job->emit_mu);
    bool finalize = false;
    proto::SweepCompleteMsg complete;
    {
      std::lock_guard<std::mutex> lk(mu_);
      --job->active;
      self.job.reset();
      if (stopped && job->state == Job::State::kRunning) {
        // Reclaimed: the session waits at the head of its job's queue.
        job->parked.push_back(std::move(task));
        sm().reclaims.add();
      } else if (stopped) {
        // Cancelled mid-run: the scenario ends here, without a result.
        ++job->cancelled;
        ++cancelled_total_;
      } else {
        if (!job->ttfr_recorded) {
          job->ttfr_recorded = true;
          sm().ttfr.record(ms_since(job->submitted));
        }
        if (result.ok) {
          ++job->completed;
          ++done_total_;
          sm().done.add();
        } else {
          ++job->failed;
          ++failed_total_;
          sm().failed.add();
        }
      }
      if (job->finished() && !job->finalized) {
        complete = finalize_locked(job);
        finalize = true;
      }
    }
    if (!stopped) emit(job, std::move(result));
    if (finalize) emit(job, complete);
    em.unlock();
    if (finalize || stopped) work_cv_.notify_all();
  }
}

void SweepService::stop(bool cancel_pending) {
  if (cancel_pending) {
    // Snapshot every live job id, then cancel through the regular path
    // (which respects the emit ordering and releases cores).
    std::vector<std::uint32_t> ids;
    {
      std::lock_guard<std::mutex> lk(mu_);
      draining_ = true;
      for (const auto& j : queue_) ids.push_back(j->id);
      for (const auto& j : running_) ids.push_back(j->id);
    }
    for (const std::uint32_t id : ids) cancel(id);
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [&] { return running_.empty() && queue_.empty(); });
    if (joined_) return;
    stopping_ = true;
    joined_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

}  // namespace tac3d::service

#pragma once
/// \file service.hpp
/// \brief SweepService: the long-lived compute core of sweep-as-a-service.
///
/// One process-wide ScenarioBank serves every client: concurrent
/// submissions that share stacks/traces/steady keys hit the warm tiers
/// (symbolic analysis included) instead of re-compiling, exactly as
/// repeated run_sweep() calls against a caller-owned bank do — and with
/// the same bitwise-neutrality guarantee, so a scenario's metrics are
/// identical whether it ran through the service, a sweep, or a
/// from-scratch session.
///
/// Admission control: the service owns a fixed pool of core_budget
/// worker threads. Each submitted job declares how many cores it wants;
/// jobs are admitted FIFO while the sum of granted cores fits the
/// budget, and a job that would exceed it is queued — never refused.
/// Within an admitted job, scenarios run longest-estimated-first (the
/// sweep runner's LPT cost model, steady-tier discounts included), and
/// every finished scenario is streamed to the job's event callback
/// immediately — time-to-first-result does not wait for sweep end. The
/// service speaks the wire messages themselves: its events, acks and
/// status are the protocol structs a server frames.
///
/// Work conservation: a grant is a job's guaranteed share, not its cap.
/// A worker with no scenario to claim within any grant is lent to the
/// oldest running job that has a pending scenario, also while a job
/// queues: a queued job waits for grants, not for workers. When a newly
/// admitted job finds no free worker, lent workers, latest claims first,
/// give their cores back at their session's next control interval: the
/// session is put down at the head of its job's pending scenarios and
/// resumes, bitwise unchanged, on whichever worker claims it next
/// (SimulationSession::run_to_end's stop flag).
///
/// Robustness contract: a cancelled job (client disconnect) skips its
/// pending scenarios and stops its in-flight ones at their next control
/// interval, with no result (they count as cancelled) — other jobs are
/// untouched; a scenario that throws is reported as that scenario's
/// error without poisoning its job or any other client; drain() stops
/// admissions and completes all accepted work before returning.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "sim/bank.hpp"
#include "sim/experiment.hpp"

namespace tac3d::service {

struct ServiceOptions {
  /// Worker threads (= admissible cores). <= 0 defers to TAC3D_JOBS /
  /// hardware concurrency via sim::resolve_jobs.
  int core_budget = 0;
  /// Shared scenario bank; null = the service creates its own.
  /// Handing in a pre-warmed bank makes the first requests construction-
  /// free too.
  std::shared_ptr<sim::ScenarioBank> bank;
};

class SweepService {
 public:
  /// Job event sink: a protocol::ScenarioResultMsg per finished
  /// scenario, then one protocol::SweepCompleteMsg. Invoked from worker
  /// threads; calls of one job are serialized and ordered (every result
  /// strictly before the job's completion), calls of different jobs may
  /// interleave. Exceptions thrown by the callback are swallowed (a dead
  /// client must not take the worker down).
  using EventFn = std::function<void(const protocol::Message&)>;

  explicit SweepService(ServiceOptions opts = {});
  /// Cancels all work (in-flight scenarios stop at their next control
  /// interval) and joins the workers. Use drain() first for a graceful
  /// finish-everything stop.
  ~SweepService();

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Queue a job of \p scenarios weighted as \p cores_requested cores
  /// (clamped to [1, core_budget] and to the scenario count): the
  /// workers it is guaranteed once admitted. Returns the job's ack with
  /// client_tag left 0 for the caller to fill, or nullopt when the
  /// service is draining — the caller maps that to a typed rejection.
  /// Empty scenario lists are rejected by the caller
  /// (protocol::ServiceError::kBadRequest); submitting one anyway yields
  /// an immediate empty completion.
  std::optional<protocol::SubmitAckMsg> submit(
      std::vector<sim::Scenario> scenarios, int cores_requested,
      EventFn on_event);

  /// Cancel a job: a queued job completes immediately as fully
  /// cancelled; a running job skips its pending scenarios, and its
  /// in-flight ones stop at their next control interval without a
  /// result (one that reaches its end first streams normally). The
  /// job's completion carries was_cancelled. Returns false for
  /// unknown/finished ids.
  bool cancel(std::uint32_t job_id);

  /// Stop admitting (submit returns nullopt) and block until every
  /// accepted job — running or queued — has fully completed, then stop
  /// the workers. Idempotent; concurrent callers all block until done.
  void drain();

  protocol::StatusMsg status() const;

  const std::shared_ptr<sim::ScenarioBank>& bank() const { return bank_; }
  int core_budget() const { return budget_; }

 private:
  struct Job;
  /// One worker thread: the job of the scenario in its hands (null when
  /// free) and when it claimed it (both guarded by mu_), and the flag
  /// that asks it to put the scenario down at the next control interval
  /// (stored under mu_, polled by the running session without it).
  struct Worker {
    std::shared_ptr<Job> job;
    std::uint64_t claimed = 0;  ///< claims_ at the claim
    std::atomic<bool> stop{false};
  };

  void worker_loop(Worker& self);
  /// The job a free worker serves next: the first running job with a
  /// pending scenario within its grant; else the oldest running job with
  /// a pending scenario (\p lent is set). Null when there is none.
  /// Caller holds mu_.
  std::shared_ptr<Job> next_job_locked(bool& lent) const;
  /// Admit queued jobs while their grants fit the free budget (FIFO,
  /// head-of-line), then reclaim lent workers for them. Caller holds
  /// mu_.
  void try_admit_locked();
  /// Ask workers running beyond their job's grant to stop, latest
  /// claims first, until every pending scenario within a grant has a
  /// free worker, or one already stopping. Caller holds mu_.
  void reclaim_locked();
  /// Release a finished/cancelled job's cores, erase it, return its
  /// completion. Caller holds mu_ (and the job's emit_mu).
  protocol::SweepCompleteMsg finalize_locked(const std::shared_ptr<Job>& job);
  void emit(const std::shared_ptr<Job>& job, const protocol::Message& ev);
  void stop(bool cancel_pending);

  std::shared_ptr<sim::ScenarioBank> bank_;
  int budget_ = 1;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: claimable task / stop
  std::condition_variable idle_cv_;  ///< drain: all accepted work done
  std::vector<std::shared_ptr<Job>> queue_;    ///< admission FIFO
  std::vector<std::shared_ptr<Job>> running_;  ///< admission order
  std::uint32_t next_job_id_ = 1;
  std::uint64_t claims_ = 0;  ///< scenarios claimed so far
  int cores_in_use_ = 0;
  bool draining_ = false;
  bool stopping_ = false;
  bool joined_ = false;
  std::uint64_t done_total_ = 0, failed_total_ = 0, cancelled_total_ = 0;

  std::vector<Worker> slots_;  ///< one per thread, never resized
  std::vector<std::thread> workers_;
};

}  // namespace tac3d::service

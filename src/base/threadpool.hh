/**
 * @file
 * Small fixed-size worker pool for fan-out/join parallelism, plus a
 * TaskGroup for tracking completion of a subset of tasks on a shared
 * pool.
 *
 * The campaign engine uses the pool to spread independent injection
 * runs across cores.  Scheduling is dynamic (a shared work queue), so
 * the assignment of items to threads is nondeterministic — callers
 * that need deterministic results must write each item's output to a
 * slot derived from the item itself, never from arrival order.
 *
 * The suite scheduler multiplexes many campaigns onto ONE pool: each
 * campaign submits its injections through its own TaskGroup, so
 * workers that finish one campaign's tasks steal the next queued task
 * regardless of which campaign it belongs to.  TaskGroup::wait() also
 * help-runs the group's own queued tasks on the waiting thread, so a
 * pool task may itself fan out a batch and wait on it without
 * deadlocking — even on a single-worker pool.
 *
 * The first exception thrown by a task is captured and rethrown from
 * wait() on the submitting thread (per group for TaskGroup); later
 * exceptions are dropped.
 */

#ifndef MERLIN_BASE_THREADPOOL_HH
#define MERLIN_BASE_THREADPOOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hh"

namespace merlin::base
{

class ThreadPool
{
  public:
    /**
     * Most worker threads one pool starts.  Each pool thread is an OS
     * thread, so a typo such as `--jobs 40000` would exhaust the
     * host's process ids; every thread-count flag is checked against
     * this cap (checkThreads) before a pool exists.
     */
    static constexpr unsigned kMaxThreads = 1024;

    /** @p threads worker threads; 0 picks the hardware concurrency. */
    explicit ThreadPool(unsigned threads = 0);

    /** Joins all workers; pending tasks are completed first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** Enqueue one task, optionally tagged with its TaskGroup. */
    void submit(std::function<void()> fn, const void *tag = nullptr);

    /** Block until every submitted task has finished; rethrows. */
    void wait();

    /**
     * Pop one queued task and run it on the calling thread; with a
     * non-null @p tag, only a task carrying that tag (i.e. one
     * TaskGroup's own work).  @return false when no eligible task was
     * queued (one may still be running on a worker).  Lets blocked
     * waiters contribute work instead of idling — the basis of
     * TaskGroup's deadlock-free nested wait().
     */
    bool runOne(const void *tag = nullptr);

    /** std::thread::hardware_concurrency with a floor of 1. */
    static unsigned hardwareThreads();

    /** @p threads, or fatal() naming @p what when it exceeds
     *  kMaxThreads (0, every hardware thread, passes). */
    static unsigned checkThreads(unsigned threads, const std::string &what);

  private:
    struct QueuedTask
    {
        std::function<void()> fn;
        const void *tag = nullptr; ///< owning TaskGroup, if any
    };

    void workerLoop();
    void runTask(QueuedTask &task);

    // Pool telemetry (global obs registry instruments, shared by every
    // pool in the process): tasks submitted/run, queue depth at each
    // submit, and accumulated task-execution microseconds — the
    // utilization numerator against workers x wall time.
    obs::Counter &tasksSubmitted_;
    obs::Counter &tasksRun_;
    obs::Counter &busyMicros_;
    obs::Histogram &queueDepth_;

    std::vector<std::thread> workers_;
    std::deque<QueuedTask> queue_;
    mutable std::mutex mu_;
    std::condition_variable workCv_;  ///< workers wait for tasks
    std::condition_variable idleCv_;  ///< wait() waits for drain
    std::size_t inFlight_ = 0;
    std::exception_ptr firstError_;
    bool stop_ = false;
};

/**
 * Completion tracking for a subset of tasks on a shared ThreadPool.
 *
 * Many groups can multiplex one pool; each group's wait() returns as
 * soon as ITS tasks are done, independent of the others.  wait()
 * help-runs queued pool tasks (from any group) while waiting, so a
 * task running on the pool may submit a nested batch through a group
 * and wait on it — this is what lets a campaign fan its injections
 * into the shared suite pool from inside a pool task.
 *
 * A group must outlive its submitted tasks; wait() before destruction.
 */
class TaskGroup
{
  public:
    explicit TaskGroup(ThreadPool &pool) : pool_(pool) {}

    ~TaskGroup() { waitNoThrow(); }

    TaskGroup(const TaskGroup &) = delete;
    TaskGroup &operator=(const TaskGroup &) = delete;

    /** Enqueue one task counted toward this group. */
    void submit(std::function<void()> fn);

    /**
     * Block until every task of this group has finished, help-running
     * THIS group's queued tasks meanwhile (foreign tasks are left to
     * the pool workers, so a waiting campaign never nests another
     * campaign on its stack).  Rethrows the group's first task
     * exception.
     */
    void wait();

    ThreadPool &pool() { return pool_; }

  private:
    void waitNoThrow() noexcept;

    ThreadPool &pool_;
    std::mutex mu_;
    std::condition_variable doneCv_;
    std::size_t pending_ = 0;
    std::exception_ptr firstError_;
};

} // namespace merlin::base

#endif // MERLIN_BASE_THREADPOOL_HH

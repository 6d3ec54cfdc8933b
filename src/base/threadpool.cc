#include "base/threadpool.hh"

#include "base/logging.hh"
#include "obs/clock.hh"

namespace merlin::base
{

unsigned
ThreadPool::hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

unsigned
ThreadPool::checkThreads(unsigned threads, const std::string &what)
{
    if (threads > kMaxThreads)
        fatal(what, ": ", threads, " exceeds the ", kMaxThreads,
              "-thread cap");
    return threads;
}

ThreadPool::ThreadPool(unsigned threads)
    : tasksSubmitted_(obs::Registry::global().counter(
          "pool.tasks_submitted")),
      tasksRun_(obs::Registry::global().counter("pool.tasks_run")),
      busyMicros_(obs::Registry::global().counter("pool.busy_us")),
      queueDepth_(obs::Registry::global().histogram("pool.queue_depth"))
{
    if (threads == 0)
        threads = hardwareThreads();
    workers_.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> fn, const void *tag)
{
    std::size_t depth;
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(QueuedTask{std::move(fn), tag});
        depth = queue_.size();
    }
    tasksSubmitted_.add();
    queueDepth_.observe(depth);
    workCv_.notify_one();
}

void
ThreadPool::runTask(QueuedTask &task)
{
    const obs::TimePoint t0 = obs::now();
    try {
        task.fn();
    } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!firstError_)
            firstError_ = std::current_exception();
    }
    busyMicros_.add(obs::microsSince(t0));
    tasksRun_.add();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        QueuedTask task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            workCv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to do
            task = std::move(queue_.front());
            queue_.pop_front();
            ++inFlight_;
        }
        runTask(task);
        {
            // Notify UNDER the lock: a waiter that saw the drain after
            // an unlocked decrement could destroy the pool before an
            // unlocked notify touched the condition variable.
            std::lock_guard<std::mutex> lock(mu_);
            --inFlight_;
            idleCv_.notify_all();
        }
    }
}

bool
ThreadPool::runOne(const void *tag)
{
    QueuedTask task;
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = queue_.begin();
        if (tag) {
            while (it != queue_.end() && it->tag != tag)
                ++it;
        }
        if (it == queue_.end())
            return false;
        task = std::move(*it);
        queue_.erase(it);
        ++inFlight_;
    }
    runTask(task);
    {
        // Under the lock, as in workerLoop: runOne may be called by a
        // thread that does not own the pool's lifetime.
        std::lock_guard<std::mutex> lock(mu_);
        --inFlight_;
        idleCv_.notify_all();
    }
    return true;
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    idleCv_.wait(lock, [this] { return queue_.empty() && inFlight_ == 0; });
    if (firstError_) {
        std::exception_ptr e = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(e);
    }
}

// ------------------------------------------------------------ TaskGroup

void
TaskGroup::submit(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++pending_;
    }
    try {
        pool_.submit(
            [this, fn = std::move(fn)] {
                // The group's tasks report to the group, not to the
                // pool's firstError_: a suite campaign's failure
                // belongs to that campaign's wait(), not to whoever
                // calls pool.wait() last.
                std::exception_ptr err;
                try {
                    fn();
                } catch (...) {
                    err = std::current_exception();
                }
                {
                    // Notify UNDER the lock: once pending_ hits zero a
                    // waiter may destroy this group, and an unlocked
                    // notify would then touch a dead doneCv_.
                    std::lock_guard<std::mutex> lock(mu_);
                    if (err && !firstError_)
                        firstError_ = err;
                    --pending_;
                    doneCv_.notify_all();
                }
            },
            /*tag=*/this);
    } catch (...) {
        // The task never reached the queue (queue allocation failure):
        // roll the count back, or wait() would block on a task that
        // does not exist.
        std::lock_guard<std::mutex> lock(mu_);
        --pending_;
        throw;
    }
}

void
TaskGroup::wait()
{
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (pending_ == 0)
                break;
        }
        if (!pool_.runOne(/*tag=*/this)) {
            // None of OUR tasks are queued (they run on workers, or
            // foreign tasks head the queue — those are the workers'
            // business, never nested here).  Any completion notifies,
            // so re-checking under the lock before sleeping closes
            // the lost-wakeup window.
            std::unique_lock<std::mutex> lock(mu_);
            if (pending_ != 0)
                doneCv_.wait(lock);
        }
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (firstError_) {
        std::exception_ptr e = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(e);
    }
}

void
TaskGroup::waitNoThrow() noexcept
{
    try {
        wait();
    } catch (...) {
        // Destructor context: the error was already lost to the caller.
    }
}

} // namespace merlin::base

/**
 * @file
 * CampaignService implementation.  The campaign body is the former
 * SuiteScheduler internals, moved here
 * verbatim so the batch wrapper keeps its byte-identity guarantees;
 * what is new is the lifetime around them: per-client queues, the
 * single-flight index, and drivers that spawn on demand instead of
 * once per suite.
 */

#include "sched/service.hh"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "base/logging.hh"
#include "io/journal.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace merlin::sched
{

using io::Json;

namespace
{

void
bumpRelaxed(obs::ProgressSink *sink,
            std::atomic<std::uint64_t> obs::ProgressSink::*field,
            std::uint64_t n = 1)
{
    if (sink)
        (sink->*field).fetch_add(n, std::memory_order_relaxed);
}

obs::Gauge &
clientGauge(const std::string &client, const char *what)
{
    return obs::Registry::global().gauge("service.client." + client +
                                         "." + what);
}

obs::Counter &
clientCounter(const std::string &client, const char *what)
{
    return obs::Registry::global().counter("service.client." + client +
                                           "." + what);
}

} // namespace

// --------------------------------------------------------------- Ticket

CampaignService::Ticket::Ticket(CampaignSpec spec, std::string key,
                                SubmitOptions opts)
    : spec_(std::move(spec)), key_(std::move(key)), opts_(std::move(opts))
{
}

CampaignService::State
CampaignService::Ticket::state() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return state_;
}

CampaignService::State
CampaignService::Ticket::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
        return state_ == State::Done || state_ == State::Failed ||
               state_ == State::Cancelled;
    });
    return state_;
}

const CampaignService::Outcome &
CampaignService::Ticket::outcome() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (state_ != State::Done)
        fatal("campaign service: outcome() on a ticket in state ",
              stateName(state_));
    return outcome_;
}

std::exception_ptr
CampaignService::Ticket::error() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
}

void
CampaignService::Ticket::complete(State s, Outcome out,
                                  std::exception_ptr err)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        state_ = s;
        outcome_ = std::move(out);
        error_ = err;
    }
    cv_.notify_all();
}

const char *
CampaignService::stateName(State s)
{
    switch (s) {
      case State::Queued:    return "queued";
      case State::Running:   return "running";
      case State::Done:      return "done";
      case State::Failed:    return "failed";
      case State::Cancelled: return "cancelled";
    }
    panic("bad service state");
}

// ------------------------------------------------------ CampaignService

/** One queued/running simulation and everyone waiting on it. */
struct CampaignService::Job
{
    CampaignSpec spec;
    std::string key;
    std::string client; ///< fairness queue that owns the job
    /** Consult the journal (primary's reuseCached). */
    bool resume = false;
    bool running = false;
    /** Filled by runJob(); fanned out per ticket by settleLocked(). */
    Outcome outcome;
    /** Subscribers; [0] is the submitter whose options drive the run.
     *  Mutated only under the service mutex. */
    std::vector<TicketPtr> tickets;
};

struct CampaignService::WorkloadSlot
{
    std::once_flag once;
    std::shared_ptr<const workloads::BuiltWorkload> wl;
};

CampaignService::CampaignService(Config cfg)
    : cfg_(std::move(cfg)),
      journalRoot_(cfg_.storePath.empty() ? std::string()
                                          : cfg_.storePath + ".journal"),
      pool_(cfg_.jobs ? cfg_.jobs : base::ThreadPool::hardwareThreads()),
      store_(cfg_.storePath), paused_(cfg_.startPaused)
{
    if (cfg_.loadStore)
        store_.load();
    if (!journalRoot_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(journalRoot_, ec);
        if (ec)
            fatal("campaign service: cannot create journal directory '",
                  journalRoot_, "': ", ec.message());
    }
}

CampaignService::~CampaignService()
{
    drain();
}

std::shared_ptr<const workloads::BuiltWorkload>
CampaignService::workloadFor(const std::string &name)
{
    WorkloadSlot *slot;
    {
        // Slot creation is the only map mutation; call_once runs
        // outside the lock so DIFFERENT workloads build concurrently.
        std::lock_guard<std::mutex> lock(wlMu_);
        auto &up = wlCache_[name];
        if (!up)
            up = std::make_unique<WorkloadSlot>();
        slot = up.get();
    }
    std::call_once(slot->once, [&] {
        slot->wl = std::make_shared<const workloads::BuiltWorkload>(
            workloads::buildWorkload(name));
    });
    return slot->wl;
}

std::string
CampaignService::journalPathFor(const CampaignSpec &spec) const
{
    return journalRoot_.empty()
               ? std::string()
               : (std::filesystem::path(journalRoot_) /
                  (spec.key() + ".journal"))
                     .string();
}

CampaignService::TicketPtr
CampaignService::submit(const CampaignSpec &spec, const SubmitOptions &opts)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (draining_)
            return nullptr;
    }
    const std::string key = spec.key();
    TicketPtr ticket(new Ticket(spec, key, opts));
    clientCounter(opts.client, "submitted").add();

    // Resolve the store on the submitter's thread, before the job ever
    // reaches a driver — the same "lookups never race with writers"
    // discipline the batch scheduler had, per submission.
    bool cacheHit = false;
    core::CampaignResult cachedRes;
    if (opts.reuseCached) {
        std::lock_guard<std::mutex> lock(storeMu_);
        cacheHit = store_.lookup(key, cachedRes);
    }

    if (cacheHit) {
        Outcome out;
        out.result = std::move(cachedRes);
        out.cached = true;
        // A journal outliving a stored result means a previous run
        // died between the store save and the journal cleanup; the
        // store won, so the journal is stale.
        if (!journalRoot_.empty()) {
            std::error_code ec;
            std::filesystem::remove(journalPathFor(spec), ec);
        }
        bumpRelaxed(opts.progress, &obs::ProgressSink::campaignsDone);
        bumpRelaxed(opts.progress, &obs::ProgressSink::campaignsCached);
        clientCounter(opts.client, "cache_hits").add();
        {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.submitted;
            ++stats_.cacheHits;
        }
        ticket->complete(State::Done, std::move(out), nullptr);
        return ticket;
    }

    std::lock_guard<std::mutex> lock(mu_);
    if (draining_)
        return nullptr;
    ++stats_.submitted;

    // Single-flight: an identical spec already queued or running means
    // this submission subscribes instead of simulating — outcomes are
    // a pure function of the spec, so the bytes are safely shareable.
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
        Job &job = *it->second;
        if (job.running)
            ticket->state_ = State::Running; // ticket not yet shared
        job.tickets.push_back(ticket);
        ++stats_.coalesced;
        clientCounter(opts.client, "coalesced").add();
        return ticket;
    }

    auto job = std::make_shared<Job>();
    job->spec = spec;
    job->key = key;
    job->client = opts.client;
    job->resume = opts.reuseCached;
    job->tickets.push_back(ticket);

    auto [qit, fresh] = queues_.try_emplace(opts.client);
    if (fresh)
        clientOrder_.push_back(opts.client);
    qit->second.push_back(job);
    clientGauge(opts.client, "queued")
        .set(static_cast<double>(qit->second.size()));
    inflight_.emplace(key, job);
    ++queuedJobs_;
    ++stats_.queued;
    maybeSpawnDriverLocked();
    return ticket;
}

CampaignService::TicketPtr
CampaignService::subscribe(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it == inflight_.end())
        return nullptr;
    Job &job = *it->second;
    TicketPtr ticket(new Ticket(job.spec, key, SubmitOptions{}));
    if (job.running)
        ticket->state_ = State::Running;
    job.tickets.push_back(ticket);
    ++stats_.coalesced;
    return ticket;
}

bool
CampaignService::cancel(const TicketPtr &ticket)
{
    if (!ticket)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(ticket->key());
    if (it == inflight_.end() || it->second->running)
        return false;
    Job &job = *it->second;
    auto tit = std::find(job.tickets.begin(), job.tickets.end(), ticket);
    if (tit == job.tickets.end())
        return false; // a ticket from some earlier job for this key
    job.tickets.erase(tit);
    ticket->complete(State::Cancelled, Outcome{}, nullptr);
    ++stats_.cancelled;
    if (!job.tickets.empty())
        return true; // other subscribers keep the job alive
    auto &q = queues_[job.client];
    auto qit = std::find(q.begin(), q.end(), it->second);
    if (qit != q.end())
        q.erase(qit);
    clientGauge(job.client, "queued").set(static_cast<double>(q.size()));
    inflight_.erase(it);
    --queuedJobs_;
    --stats_.queued;
    idleCv_.notify_all();
    return true;
}

void
CampaignService::resume()
{
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
    maybeSpawnDriverLocked();
}

void
CampaignService::drain()
{
    std::unique_lock<std::mutex> lock(mu_);
    if (paused_) {
        // Draining a paused service would deadlock on its own queue.
        paused_ = false;
        maybeSpawnDriverLocked();
    }
    // Wait for the drivers too, not just the jobs: a driver that just
    // settled its last job is still executing driverLoop(), and the
    // destructor must not tear the queues down under it.
    idleCv_.wait(lock, [&] {
        return queuedJobs_ == 0 && runningJobs_ == 0 &&
               activeDrivers_ == 0;
    });
}

void
CampaignService::beginShutdown(bool cancel_queued)
{
    std::lock_guard<std::mutex> lock(mu_);
    draining_ = true;
    if (!cancel_queued)
        return;
    for (auto &[client, q] : queues_) {
        while (!q.empty()) {
            std::shared_ptr<Job> job = q.front();
            q.pop_front();
            --queuedJobs_;
            --stats_.queued;
            settleLocked(job, State::Cancelled, nullptr);
        }
        clientGauge(client, "queued").set(0.0);
    }
    idleCv_.notify_all();
}

bool
CampaignService::draining() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return draining_;
}

void
CampaignService::withStore(const std::function<void(io::ResultStore &)> &fn)
{
    std::lock_guard<std::mutex> lock(storeMu_);
    fn(store_);
}

bool
CampaignService::keyState(const std::string &key, State &out)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = inflight_.find(key);
        if (it != inflight_.end()) {
            out = it->second->running ? State::Running : State::Queued;
            return true;
        }
    }
    std::lock_guard<std::mutex> lock(storeMu_);
    if (store_.contains(key)) {
        out = State::Done;
        return true;
    }
    return false;
}

CampaignService::Stats
CampaignService::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

void
CampaignService::maybeSpawnDriverLocked()
{
    // Driver demand is one per in-flight job, capped at the pool: the
    // classic "min(pool.size(), pending.size())" of the batch
    // scheduler, maintained incrementally.  Drivers that find the
    // queues empty exit, freeing their worker for queued injections.
    while (!paused_ && activeDrivers_ < pool_.size() &&
           activeDrivers_ < runningJobs_ + queuedJobs_) {
        ++activeDrivers_;
        pool_.submit([this] { driverLoop(); });
    }
}

std::shared_ptr<CampaignService::Job>
CampaignService::popNextLocked()
{
    // Round-robin across the per-client queues: the rotation pointer
    // advances past each served client, so one tenant's thousand-spec
    // sweep cannot starve another's single submission.
    for (std::size_t k = 0; k < clientOrder_.size(); ++k) {
        const std::size_t idx = (rrNext_ + k) % clientOrder_.size();
        auto &q = queues_[clientOrder_[idx]];
        if (q.empty())
            continue;
        std::shared_ptr<Job> job = q.front();
        q.pop_front();
        clientGauge(clientOrder_[idx], "queued")
            .set(static_cast<double>(q.size()));
        rrNext_ = (idx + 1) % clientOrder_.size();
        return job;
    }
    return nullptr;
}

void
CampaignService::driverLoop()
{
    for (;;) {
        std::shared_ptr<Job> job;
        {
            std::lock_guard<std::mutex> lock(mu_);
            job = popNextLocked();
            if (!job) {
                --activeDrivers_;
                idleCv_.notify_all();
                return;
            }
            --queuedJobs_;
            --stats_.queued;
            ++runningJobs_;
            ++stats_.running;
            job->running = true;
            clientGauge(job->client, "running")
                .set(static_cast<double>(++runningByClient_[job->client]));
            for (const TicketPtr &t : job->tickets)
                t->complete(State::Running, Outcome{}, nullptr);
        }
        std::exception_ptr err;
        try {
            runJob(*job);
        } catch (...) {
            err = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            --runningJobs_;
            --stats_.running;
            clientGauge(job->client, "running")
                .set(static_cast<double>(--runningByClient_[job->client]));
            settleLocked(job, err ? State::Failed : State::Done, err);
            idleCv_.notify_all();
        }
    }
}

void
CampaignService::settleLocked(const std::shared_ptr<Job> &job, State state,
                              std::exception_ptr err)
{
    auto it = inflight_.find(job->key);
    if (it != inflight_.end() && it->second == job)
        inflight_.erase(it);
    if (state == State::Done)
        ++stats_.executed;
    else if (state == State::Failed)
        ++stats_.failed;
    else if (state == State::Cancelled)
        stats_.cancelled += job->tickets.size();
    bool first = true;
    for (const TicketPtr &t : job->tickets) {
        Outcome out = job->outcome;
        out.coalesced = !first;
        first = false;
        if (state == State::Done) {
            bumpRelaxed(t->opts_.progress,
                        &obs::ProgressSink::campaignsDone);
        }
        t->complete(state, std::move(out), err);
    }
}

obs::ProgressSink *
CampaignService::primaryProgress(const Job &job)
{
    std::lock_guard<std::mutex> lock(mu_);
    return job.tickets.empty() ? nullptr : job.tickets[0]->opts_.progress;
}

void
CampaignService::runJob(Job &job)
{
    const CampaignSpec &spec = job.spec;
    obs::Span span("sched",
                   "campaign " + spec.workload + " " + spec.key());
    obs::ProgressSink *progress = primaryProgress(job);
    const auto wl = workloadFor(spec.workload);
    core::CampaignConfig cc = spec.campaignConfig(*wl);
    // The quarantine policy rides on the service config, not the spec:
    // it decides how failures are handled, never what a healthy
    // campaign computes.
    cc.runner.quarantine = cfg_.quarantineFail
                               ? faultsim::QuarantinePolicy::Fail
                               : faultsim::QuarantinePolicy::Continue;
    core::Campaign camp(wl->program, cc);
    core::PreparedCampaign prep =
        camp.prepare(spec.mode, spec.relyzer, spec.pathDepth);

    std::vector<faultsim::Outcome> outcomes;
    io::OutcomeJournal journal(journalPathFor(spec), spec.key());
    std::vector<faultsim::QuarantineRecord> restoredQuarantine;
    if (!prep.faults.empty()) {
        // Crash safety under the per-campaign store save: replay the
        // journal of a killed predecessor into the batch memo (so
        // finished injections are not re-simulated), then journal
        // every fresh outcome as it lands.  Without resume the
        // journal is started over along with the campaign.
        faultsim::OutcomeMemo memo(prep.faults.size());
        std::uint64_t restored = 0;
        if (job.resume) {
            obs::Span restore_span("io", "journal.restore");
            restoredQuarantine = journal.restore(
                [&](std::uint64_t key, faultsim::Outcome o) {
                    memo.insert(key, o);
                    ++restored;
                });
        }
        bumpRelaxed(progress, &obs::ProgressSink::injections, restored);
        journal.open();
        const faultsim::InjectionRunner::OutcomeCallback record =
            [&](std::uint64_t key, faultsim::Outcome o,
                const faultsim::InjectDetail &detail) {
                journal.append(key, o, detail);
                bumpRelaxed(progress, &obs::ProgressSink::injections);
            };
        // Fan this campaign's injections into the SHARED pool: the
        // queue interleaves them with every other in-flight
        // campaign, so any worker whose own campaign chain has run
        // dry picks them up.  (The batch dedups internally; no
        // cross-batch memo exists to share any more.)
        base::TaskGroup group(pool_);
        {
            obs::Span inject_span("campaign",
                                  "inject-batch " + spec.workload);
            outcomes = camp.runner().injectBatch(
                prep.faults, camp.goldenRun(), group, &memo, &record);
        }
        journal.close();
    }
    core::CampaignResult res = camp.finish(std::move(prep), outcomes);
    // Fold the replayed quarantine records back in: the runner only
    // saw what THIS process simulated, but the result must equal an
    // uninterrupted run's — same sorted quarantine list — for the
    // store bytes to stay identical.
    if (!restoredQuarantine.empty()) {
        res.quarantine.insert(res.quarantine.end(),
                              restoredQuarantine.begin(),
                              restoredQuarantine.end());
        std::sort(res.quarantine.begin(), res.quarantine.end());
    }
    {
        // Persist after EVERY campaign: an interrupted service
        // resumes from the completed prefix.
        std::lock_guard<std::mutex> lock(storeMu_);
        store_.put(spec.key(), spec.toJson(), res);
        store_.save();
    }
    // The store save is durable; the journal has nothing left to
    // protect (and must not shadow the next run of this spec).
    journal.remove();
    job.outcome.result = std::move(res);
}

} // namespace merlin::sched

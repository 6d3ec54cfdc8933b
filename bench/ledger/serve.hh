/**
 * @file
 * merlin_serve as the ledger drives it: a child daemon that is always
 * stopped and reaped, wire clients whose reads and writes time out, and
 * the open-loop warm request generator.
 *
 * A dead or hung daemon therefore shows up as failed operations and a
 * removed socket, never as a hang: every read has a deadline, the
 * daemon dies with the ledger (PR_SET_PDEATHSIG), and stop() escalates
 * from SIGTERM to SIGKILL.
 */

#ifndef MERLIN_LEDGER_SERVE_HH
#define MERLIN_LEDGER_SERVE_HH

#include <sys/types.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "io/wire.hh"
#include "ledger.hh"

namespace ledger
{

/** One merlin_serve child process. */
class Daemon
{
  public:
    /**
     * Start `merlin_serve --socket @p socket --store @p store --jobs
     * @p jobs` (plus --metrics @p metrics when set) and wait until it
     * listens; fatal() when it does not within the start deadline.
     */
    Daemon(std::string socket, const std::string &store, unsigned jobs,
           const std::string &metrics = "");
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * SIGTERM (a graceful drain), then SIGKILL if the daemon has not
     * exited within the grace period; reap it and remove the socket.
     * @return true when it exited 0 on its own.  Idempotent.
     */
    bool stop();

    /** Send @p sig to the daemon (robustness tests). */
    void signal(int sig);

    /** User + system CPU seconds the daemon has used so far. */
    double cpuSeconds() const;
    /** The same, for its campaign pool alone: the daemon starts the
     *  pool before it accepts any session, so the pool's threads are
     *  its @p jobs oldest after the main thread. */
    double poolCpuSeconds(unsigned jobs) const;
    /** The daemon's peak resident set so far, MiB. */
    double peakRssMb() const;

  private:
    std::string socket_;
    pid_t pid_ = -1;
    int out_ = -1; ///< read end of the daemon's stdout
};

/** One merlin-wire-v1 session; every read and write has a deadline. */
class Client
{
  public:
    Client(const std::string &socket, const std::string &name,
           double timeout_s);

    /** Send @p msg and return the reply; throws on a wire error, a
     *  timeout, a closed connection or an `error` reply. */
    Json request(const Json &msg);

  private:
    merlin::io::WireConnection conn_;
};

/** Latency samples of an open-loop generator. */
struct OpenLoop
{
    std::vector<double> latencyMs; ///< reply time minus due time
    std::vector<double> lateMs;    ///< send time minus due time
};

/**
 * Send warm submit+result pairs over @p specs (round robin) at
 * @p rate per second until @p stop is set or @p max_pairs were sent.
 * Each pair is due on a fixed schedule and timed from its due time, so
 * a stall also counts against the requests queued behind it.  Every
 * reply must be a cache hit whose result equals @p results.
 */
void openLoop(Client &client, const std::vector<CampaignSpec> &specs,
              const std::vector<Json> &results, double rate,
              const std::atomic<bool> &stop, std::uint64_t max_pairs,
              OpenLoop &out, Tally &tally);

/** A daemon holding service_mixed's warm set, and its two clients. */
struct ServiceRig
{
    std::unique_ptr<Daemon> daemon;
    std::unique_ptr<Client> sweep;
    std::unique_ptr<Client> interactive;
    /** Stored result of every warm spec, in spec order. */
    std::vector<Json> warmResults;
    Outcomes warmOutcomes;
};

/** Input generation: run the warm specs through a fresh daemon so its
 *  store holds them; records their results in @p rig. */
void generateWarm(const Workload &w, ServiceRig &rig, Tally &tally);

/**
 * Set-up: (re)start the daemon on the store the warm fill left,
 * connect both clients and confirm every warm key is stored.
 * @return its seconds.
 */
double startService(const Workload &w, ServiceRig &rig, Tally &tally,
                    const std::string &metrics = "");

/** Result of one service_mixed repetition. */
struct ServiceRep
{
    double wall = 0.0; ///< until the sweep completed
    double cpu = 0.0;  ///< ledger + daemon
    double poolCpu = 0.0; ///< the daemon's campaign pool alone
    Outcomes outcomes; ///< the sweep's, "sweep/"-prefixed
    std::vector<Json> results; ///< the sweep's, in spec order
    OpenLoop warm;
};

/** One repetition: input set @p set's cold sweep, with the interactive
 *  open loop running until it completes. */
ServiceRep serviceRep(const Workload &w, unsigned set, ServiceRig &rig,
                      Tally &tally);

/** The service's global `status` stats object. */
Json serviceStats(ServiceRig &rig);

/** Kill-and-hang robustness check for the smoke test: a daemon that
 *  dies or stops answering must cost failed operations, not a hang,
 *  and leave no socket.  @return true when it behaves. */
bool robustnessCheck();

} // namespace ledger

#endif // MERLIN_LEDGER_SERVE_HH

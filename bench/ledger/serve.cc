#include "serve.hh"

#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "base/logging.hh"

namespace ledger
{

namespace
{

using merlin::fatal;

constexpr double kStartDeadlineS = 30.0;
constexpr double kStopGraceS = 10.0;
/** Read deadline of the sweep client: a `result` blocks until its
 *  campaign is done, and a full sweep takes well under this. */
constexpr double kSweepTimeoutS = 60.0;
/** Read deadline of the interactive client: warm replies take well
 *  under a millisecond. */
constexpr double kInteractiveTimeoutS = 5.0;

const char *const kSocket = "serve.sock";
const char *const kStore = "serve-store.json";
/** The store as the warm fill left it; every set-up restarts from it. */
const char *const kWarmStore = "warm-store.json";

void
removeStore(const std::string &store)
{
    std::error_code ec;
    std::filesystem::remove(store, ec);
    std::filesystem::remove_all(store + ".journal", ec);
}

Json
submitMsg(const CampaignSpec &spec, std::uint64_t id, bool resume)
{
    Json j = Json::object();
    j.set("type", "submit");
    j.set("id", id);
    j.set("spec", spec.toJson());
    j.set("resume", resume);
    return j;
}

Json
resultMsg(std::uint64_t id)
{
    Json j = Json::object();
    j.set("type", "result");
    j.set("id", id);
    return j;
}

Json
statusMsg()
{
    Json j = Json::object();
    j.set("type", "status");
    return j;
}

/** User + system CPU seconds in a /proc stat(5) file: fields 14 and 15,
 *  counted after the parenthesised command name. */
double
statCpuSeconds(const std::string &path)
{
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos)
        return 0.0;
    std::istringstream rest(text.substr(close + 1));
    std::vector<std::string> f;
    for (std::string field; rest >> field;)
        f.push_back(field);
    if (f.size() < 13)
        return 0.0;
    return (std::stod(f[11]) + std::stod(f[12])) /
           static_cast<double>(::sysconf(_SC_CLK_TCK));
}

} // namespace

// --------------------------------------------------------------- Daemon

Daemon::Daemon(std::string socket, const std::string &store, unsigned jobs,
               const std::string &metrics)
    : socket_(std::move(socket))
{
    std::vector<std::string> args = {serveBinary(), "--socket", socket_,
                                     "--store",     store,      "--jobs",
                                     std::to_string(jobs)};
    if (!metrics.empty()) {
        args.push_back("--metrics");
        args.push_back(metrics);
    }
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        fatal("merlin_ledger: pipe2(): ", std::strerror(errno));
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0)
        fatal("merlin_ledger: fork(): ", std::strerror(errno));
    if (pid_ == 0) {
        // The daemon must not outlive the ledger, however it ends.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            ::_exit(127);
        ::dup2(fds[1], STDOUT_FILENO);
        ::close_range(3, ~0U, 0);
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];

    // The daemon prints one readiness line once it listens.
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kStartDeadlineS));
    std::string seen;
    while (seen.find("listening on") == std::string::npos) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        if (left.count() <= 0) {
            stop();
            fatal("merlin_serve did not start listening within ",
                  kStartDeadlineS, " s");
        }
        pollfd p{out_, POLLIN, 0};
        const int n = ::poll(&p, 1, static_cast<int>(left.count()));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            continue;
        char buf[256];
        const ssize_t r = ::read(out_, buf, sizeof(buf));
        if (r <= 0) {
            stop();
            fatal("merlin_serve (", serveBinary(),
                  ") exited before listening");
        }
        seen.append(buf, static_cast<std::size_t>(r));
    }
}

Daemon::~Daemon()
{
    stop();
}

bool
Daemon::stop()
{
    bool clean = false;
    if (pid_ > 0) {
        ::kill(pid_, SIGTERM);
        int status = 0;
        bool reaped = false;
        const Clock::time_point t0 = Clock::now();
        while (secondsBetween(t0, Clock::now()) < kStopGraceS) {
            const pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_ || (r < 0 && errno != EINTR)) {
                reaped = r == pid_;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        if (!reaped) {
            ::kill(pid_, SIGKILL);
            while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
            }
        }
        clean = reaped && WIFEXITED(status) && WEXITSTATUS(status) == 0;
        pid_ = -1;
    }
    if (out_ >= 0) {
        ::close(out_);
        out_ = -1;
    }
    // A killed daemon leaves its socket file behind.
    std::error_code ec;
    std::filesystem::remove(socket_, ec);
    return clean;
}

void
Daemon::signal(int sig)
{
    if (pid_ > 0)
        ::kill(pid_, sig);
}

double
Daemon::cpuSeconds() const
{
    return statCpuSeconds("/proc/" + std::to_string(pid_) + "/stat");
}

double
Daemon::poolCpuSeconds(unsigned jobs) const
{
    const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
    std::vector<long> tids;
    std::error_code ec;
    for (const auto &e : std::filesystem::directory_iterator(tasks, ec)) {
        const long tid = std::stol(e.path().filename().string());
        if (tid != pid_)
            tids.push_back(tid);
    }
    std::sort(tids.begin(), tids.end());
    double cpu = 0.0;
    for (std::size_t i = 0; i < std::min<std::size_t>(jobs, tids.size()); ++i)
        cpu += statCpuSeconds(tasks + "/" + std::to_string(tids[i]) +
                              "/stat");
    return cpu;
}

double
Daemon::peakRssMb() const
{
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    }
    return 0.0;
}

// --------------------------------------------------------------- Client

Client::Client(const std::string &socket, const std::string &name,
               double timeout_s)
    : conn_(merlin::io::wireConnect(socket))
{
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_s);
    tv.tv_usec = static_cast<suseconds_t>(
        (timeout_s - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(conn_.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(conn_.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    Json hello = Json::object();
    hello.set("type", "hello");
    hello.set("format", merlin::io::kWireFormat);
    hello.set("client", name);
    request(hello);
}

Json
Client::request(const Json &msg)
{
    conn_.write(msg);
    Json reply;
    if (!conn_.read(reply))
        fatal("wire: the daemon closed the session");
    if (reply.strOr("type", "") == "error")
        fatal("daemon error: ", reply.strOr("error", "?"));
    return reply;
}

void
openLoop(Client &client, const std::vector<CampaignSpec> &specs,
         const std::vector<Json> &results, double rate,
         const std::atomic<bool> &stop, std::uint64_t max_pairs,
         OpenLoop &out, Tally &tally)
{
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate));
    Clock::time_point due = Clock::now();
    for (std::uint64_t k = 0; k < max_pairs && !stop.load();
         ++k, due += period) {
        std::this_thread::sleep_until(due);
        const Clock::time_point sent = Clock::now();
        const std::uint64_t idx = k % specs.size();
        ++tally.attempted;
        try {
            const Json sub =
                client.request(submitMsg(specs[idx], idx, true));
            const Json res = client.request(resultMsg(idx));
            const Clock::time_point done = Clock::now();
            out.lateMs.push_back(secondsBetween(due, sent) * 1e3);
            out.latencyMs.push_back(secondsBetween(due, done) * 1e3);
            if (sub.strOr("state", "") != "done" ||
                !sub.boolOr("cached", false))
                tally.fail("warm submit of " + labelOf(specs[idx]) +
                           " was not a cache hit: " + sub.dump());
            else if (!(res.at("result") == results[idx]))
                tally.fail("warm result of " + labelOf(specs[idx]) +
                           " differs from the stored result");
        } catch (const std::exception &e) {
            // The session is unusable after a wire error.
            tally.fail(std::string("warm request: ") + e.what());
            return;
        }
    }
}

// ----------------------------------------------------------- ServiceRig

void
generateWarm(const Workload &w, ServiceRig &rig, Tally &tally)
{
    removeStore(kStore);
    Daemon daemon(kSocket, kStore, kWorkers);
    Client client(kSocket, "setup", kSweepTimeoutS);
    for (std::size_t i = 0; i < w.warm.size(); ++i)
        client.request(submitMsg(w.warm[i], i, true));
    rig.warmResults.assign(w.warm.size(), Json());
    for (std::size_t i = 0; i < w.warm.size(); ++i) {
        ++tally.attempted;
        const Json r = client.request(resultMsg(i));
        const std::string label = "warm/" + labelOf(w.warm[i]);
        if (r.strOr("state", "") != "done") {
            tally.fail(label + ": " + r.dump());
            continue;
        }
        rig.warmResults[i] = r.at("result");
        if (const std::uint64_t q = quarantinedOf(rig.warmResults[i]))
            tally.fail(label + ": " + std::to_string(q) +
                       " injection(s) quarantined");
        rig.warmOutcomes[label] = outcomeOf(rig.warmResults[i]);
    }
    if (!daemon.stop())
        tally.fail("merlin_serve did not drain cleanly after the warm fill");
    std::filesystem::copy_file(
        kStore, kWarmStore, std::filesystem::copy_options::overwrite_existing);
}

double
startService(const Workload &w, ServiceRig &rig, Tally &tally,
             const std::string &metrics)
{
    rig.interactive.reset();
    rig.sweep.reset();
    rig.daemon.reset();
    removeStore(kStore);
    std::filesystem::copy_file(kWarmStore, kStore);
    const Clock::time_point t0 = Clock::now();
    rig.daemon = std::make_unique<Daemon>(kSocket, kStore, kWorkers, metrics);
    rig.sweep = std::make_unique<Client>(kSocket, "sweep", kSweepTimeoutS);
    rig.interactive = std::make_unique<Client>(kSocket, "interactive",
                                               kInteractiveTimeoutS);
    for (const CampaignSpec &spec : w.warm) {
        ++tally.attempted;
        Json q = Json::object();
        q.set("type", "status");
        q.set("key", spec.key());
        const Json r = rig.sweep->request(q);
        if (!r.boolOr("known", false) || r.strOr("state", "") != "done")
            tally.fail("warm/" + labelOf(spec) +
                       ": not stored after restart: " + r.dump());
    }
    return secondsBetween(t0, Clock::now());
}

ServiceRep
serviceRep(const Workload &w, unsigned set, ServiceRig &rig, Tally &tally)
{
    const std::vector<CampaignSpec> &specs = w.sets[set];
    ServiceRep rep;
    Tally warm;
    std::atomic<bool> stop{false};
    const double cpu0 = processCpuSeconds();
    const double daemon0 = rig.daemon->cpuSeconds();
    const double pool0 = rig.daemon->poolCpuSeconds(kWorkers);
    const Clock::time_point t0 = Clock::now();
    std::thread generator([&] {
        openLoop(*rig.interactive, w.warm, rig.warmResults, w.rate, stop,
                 UINT64_MAX, rep.warm, warm);
    });
    rep.results.assign(specs.size(), Json());
    try {
        for (std::size_t i = 0; i < specs.size(); ++i)
            rig.sweep->request(submitMsg(specs[i], i, false));
        for (std::size_t i = 0; i < specs.size(); ++i) {
            ++tally.attempted;
            const Json r = rig.sweep->request(resultMsg(i));
            const std::string label = "sweep/" + setLabel(set, specs[i]);
            if (r.strOr("state", "") != "done") {
                tally.fail(label + ": " + r.dump());
                continue;
            }
            rep.results[i] = r.at("result");
            if (const std::uint64_t q = quarantinedOf(rep.results[i]))
                tally.fail(label + ": " + std::to_string(q) +
                           " injection(s) quarantined");
            rep.outcomes[label] = outcomeOf(rep.results[i]);
        }
    } catch (const std::exception &e) {
        tally.fail(std::string("sweep: ") + e.what());
    }
    rep.wall = secondsBetween(t0, Clock::now());
    stop = true;
    generator.join();
    rep.poolCpu = rig.daemon->poolCpuSeconds(kWorkers) - pool0;
    rep.cpu = (processCpuSeconds() - cpu0) +
              (rig.daemon->cpuSeconds() - daemon0);
    tally.attempted += warm.attempted;
    tally.failed += warm.failed;
    return rep;
}

Json
serviceStats(ServiceRig &rig)
{
    return rig.sweep->request(statusMsg()).at("stats");
}

bool
robustnessCheck()
{
    bool ok = true;
    const auto expectFailure = [&](Client &client, const char *what) {
        const Clock::time_point t0 = Clock::now();
        try {
            client.request(statusMsg());
            std::fprintf(stderr, "merlin_ledger: %s daemon still answered\n",
                         what);
            ok = false;
        } catch (const std::exception &) {
        }
        if (secondsBetween(t0, Clock::now()) > 3 * kInteractiveTimeoutS) {
            std::fprintf(stderr, "merlin_ledger: %s daemon hung the client\n",
                         what);
            ok = false;
        }
    };
    for (const int sig : {SIGKILL, SIGSTOP}) {
        const char *what = sig == SIGKILL ? "a killed" : "a stopped";
        removeStore("robust-store.json");
        Daemon daemon("robust.sock", "robust-store.json", 1);
        Client client("robust.sock", "robust", 0.5);
        client.request(statusMsg());
        daemon.signal(sig);
        // Signals land asynchronously; let this one take effect.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        expectFailure(client, what);
        daemon.signal(SIGKILL);
        daemon.stop();
        if (std::filesystem::exists("robust.sock")) {
            std::fprintf(stderr, "merlin_ledger: %s daemon left its socket\n",
                         what);
            ok = false;
        }
    }
    return ok;
}

} // namespace ledger

/**
 * @file
 * merlin_serve — the campaign service as a daemon.
 *
 *   merlin_serve --socket /run/merlin.sock [--store results.json]
 *       [--jobs N] [--quarantine=fail|continue]
 *       [--trace trace.json] [--metrics metrics.json]
 *
 * One resident sched::CampaignService behind a Unix domain socket
 * speaking merlin-wire-v1 (docs/wire-protocol.md).  Clients submit
 * campaign specs at any time; the daemon serves store hits, coalesces identical in-flight specs across clients
 * (single-flight: the simulation runs ONCE, every subscriber gets the
 * byte-identical result), schedules round-robin across clients, and
 * persists every completed campaign to --store exactly as a batch
 * `merlin_cli suite --out` run would — the store file is
 * byte-compatible and `store merge` works on it directly.
 *
 * Lifecycle: the daemon prints one readiness line and serves until
 * SIGTERM/SIGINT or a client `shutdown` request.  Shutdown is
 * graceful: the listener closes, running campaigns complete and
 * persist (their outcome journals close and are removed once the
 * store save lands), queued submissions are cancelled (SIGTERM) or
 * honored (`shutdown` without cancel_queued), sessions are unblocked
 * and joined, and the socket file is unlinked.  Exit code 0 on a
 * clean drain.
 *
 * Each client connection runs on its own session thread; the service
 * itself owns the worker pool, so a session thread only parses,
 * submits and waits.  Telemetry: the service's per-client
 * service.client.<name>.* gauges/counters, plus the daemon's
 * serve.client.<name>.bytes_served counters and wire-level trace
 * spans (wire.write, serve.<request type>).
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <unistd.h>
#endif

#include "base/logging.hh"
#include "io/result_store.hh"
#include "io/wire.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sched/service.hh"
#include "tools/cli_spec.hh"

namespace
{

using namespace merlin;
using tools::Args;

/**
 * Self-pipe shutdown plumbing: the signal handler and the wire
 * `shutdown` request both write one byte here, and the accept loop
 * polls the read end beside the listener.  Writing a pipe is
 * async-signal-safe where everything else we'd want to do is not.
 */
int g_shutdownPipe[2] = {-1, -1};
std::atomic<bool> g_cancelQueued{true};
std::atomic<int> g_activeSessions{0};

extern "C" void
onSignal(int)
{
    const char byte = 1;
    // Best-effort: a full pipe already means shutdown is requested.
    [[maybe_unused]] ssize_t r = ::write(g_shutdownPipe[1], &byte, 1);
}

void
requestShutdown(bool cancel_queued)
{
    g_cancelQueued.store(cancel_queued);
    const char byte = 1;
    [[maybe_unused]] ssize_t r = ::write(g_shutdownPipe[1], &byte, 1);
}

/** Fairness-queue / telemetry names come from the client hello;
 *  restrict them to [A-Za-z0-9._-] so they embed safely in metric
 *  names and log lines. */
std::string
sanitizeClient(const std::string &name)
{
    std::string out;
    for (const char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        out += ok ? c : '_';
    }
    if (out.empty() || out.size() > 64)
        return "client";
    return out;
}

/** One connected client: its connection, its session thread, and the
 *  per-session ticket table (ids are client-chosen, session-scoped;
 *  cross-session queries go by spec content key). */
struct Session
{
    explicit Session(int fd) : conn(fd) {}

    io::WireConnection conn;
    std::thread thread;
};

struct SessionRegistry
{
    std::mutex mu;
    std::vector<std::shared_ptr<Session>> sessions;
};

io::Json
errorReply(const std::string &msg)
{
    io::Json j = io::Json::object();
    j.set("type", "error");
    j.set("error", msg);
    return j;
}

/** The terminal-state half of a result reply, shared by the by-id and
 *  by-key paths. */
io::Json
ticketResultReply(const sched::CampaignService::TicketPtr &ticket)
{
    io::Json reply = io::Json::object();
    reply.set("type", "result");
    reply.set("key", ticket->key());
    const auto state = ticket->wait();
    reply.set("state", sched::CampaignService::stateName(state));
    if (state == sched::CampaignService::State::Done) {
        const auto &o = ticket->outcome();
        reply.set("cached", o.cached);
        reply.set("coalesced", o.coalesced);
        reply.set("spec", ticket->spec().toJson());
        reply.set("result", io::resultToJson(o.result));
    } else if (state == sched::CampaignService::State::Failed) {
        try {
            std::rethrow_exception(ticket->error());
        } catch (const std::exception &e) {
            reply.set("error", std::string(e.what()));
        }
    }
    return reply;
}

/** Handle one parsed request; never throws for per-request problems —
 *  those come back as an `error` reply and the session lives on. */
io::Json
handleRequest(sched::CampaignService &svc, const std::string &client,
              std::map<std::uint64_t, sched::CampaignService::TicketPtr>
                  &tickets,
              const io::Json &msg)
{
    const std::string type = msg.strOr("type", "");
    obs::Span span("wire", "serve." + (type.empty() ? "?" : type));

    if (type == "submit") {
        const io::Json *spec_json = msg.find("spec");
        if (!spec_json)
            return errorReply("submit: missing 'spec'");
        const sched::CampaignSpec spec =
            sched::CampaignSpec::fromJson(*spec_json);
        sched::CampaignService::SubmitOptions sopts;
        sopts.reuseCached = msg.boolOr("resume", true);
        sopts.client = client;
        const auto ticket = svc.submit(spec, sopts);
        if (!ticket)
            return errorReply("daemon is draining; submission refused");
        const std::uint64_t id = msg.u64Or("id", 0);
        tickets[id] = ticket;
        io::Json reply = io::Json::object();
        reply.set("type", "submitted");
        reply.set("id", id);
        reply.set("key", ticket->key());
        const auto state = ticket->state();
        reply.set("state", sched::CampaignService::stateName(state));
        if (state == sched::CampaignService::State::Done)
            reply.set("cached", ticket->outcome().cached);
        return reply;
    }

    if (type == "status") {
        io::Json reply = io::Json::object();
        reply.set("type", "status");
        if (const io::Json *key = msg.find("key")) {
            reply.set("key", key->asString());
            sched::CampaignService::State st;
            const bool known = svc.keyState(key->asString(), st);
            reply.set("known", known);
            if (known)
                reply.set("state",
                          sched::CampaignService::stateName(st));
            return reply;
        }
        if (msg.find("id")) {
            const auto it = tickets.find(msg.u64Or("id", 0));
            if (it == tickets.end())
                return errorReply("status: unknown submission id");
            reply.set("id", msg.u64Or("id", 0));
            reply.set("key", it->second->key());
            reply.set("state", sched::CampaignService::stateName(
                                   it->second->state()));
            return reply;
        }
        const auto s = svc.stats();
        io::Json stats = io::Json::object();
        stats.set("submitted", s.submitted);
        stats.set("executed", s.executed);
        stats.set("cache_hits", s.cacheHits);
        stats.set("coalesced", s.coalesced);
        stats.set("failed", s.failed);
        stats.set("cancelled", s.cancelled);
        stats.set("queued", s.queued);
        stats.set("running", s.running);
        reply.set("stats", stats);
        reply.set("draining", svc.draining());
        return reply;
    }

    if (type == "result") {
        if (msg.find("id")) {
            const auto it = tickets.find(msg.u64Or("id", 0));
            if (it == tickets.end())
                return errorReply("result: unknown submission id");
            io::Json reply = ticketResultReply(it->second);
            reply.set("id", msg.u64Or("id", 0));
            return reply;
        }
        const io::Json *key = msg.find("key");
        if (!key)
            return errorReply("result: need 'id' or 'key'");
        // In flight?  Subscribe (single-flight: we become one more
        // waiter on the same simulation).  Else it can only be in the
        // store.
        if (const auto ticket = svc.subscribe(key->asString()))
            return ticketResultReply(ticket);
        io::Json reply;
        svc.withStore([&](io::ResultStore &store) {
            const auto &entries = store.entries();
            const auto it = entries.find(key->asString());
            if (it == entries.end()) {
                reply = errorReply("result: unknown key '" +
                                   key->asString() + "'");
                return;
            }
            reply = io::Json::object();
            reply.set("type", "result");
            reply.set("key", it->first);
            reply.set("state", "done");
            reply.set("cached", true);
            reply.set("coalesced", false);
            reply.set("spec", it->second.spec);
            reply.set("result", it->second.result);
        });
        return reply;
    }

    if (type == "cancel") {
        const auto it = tickets.find(msg.u64Or("id", 0));
        if (it == tickets.end())
            return errorReply("cancel: unknown submission id");
        const bool cancelled = svc.cancel(it->second);
        io::Json reply = io::Json::object();
        reply.set("type", "status");
        reply.set("id", msg.u64Or("id", 0));
        reply.set("key", it->second->key());
        reply.set("cancelled", cancelled);
        reply.set("state", sched::CampaignService::stateName(
                               it->second->state()));
        return reply;
    }

    if (type == "shutdown") {
        requestShutdown(msg.boolOr("cancel_queued", false));
        io::Json reply = io::Json::object();
        reply.set("type", "ok");
        return reply;
    }

    return errorReply("unknown request type '" + type + "'");
}

/** Per-connection session: handshake, then request/reply until EOF. */
void
runSession(const std::shared_ptr<Session> &session,
           sched::CampaignService &svc)
{
    auto &clients_gauge = obs::Registry::global().gauge("serve.clients");
    clients_gauge.set(static_cast<double>(++g_activeSessions));
    struct Departure
    {
        obs::Gauge &gauge;
        ~Departure()
        {
            gauge.set(static_cast<double>(--g_activeSessions));
        }
    } departure{clients_gauge};

    std::string client = "client";
    try {
        io::Json hello;
        if (!session->conn.read(hello))
            return; // probe connection (e.g. wireListen's stale check)
        if (hello.strOr("type", "") != "hello" ||
            hello.strOr("format", "") != io::kWireFormat) {
            session->conn.write(errorReply(
                std::string("expected hello with format ") +
                io::kWireFormat));
            return;
        }
        client = sanitizeClient(hello.strOr("client", "client"));
        auto &bytes_served = obs::Registry::global().counter(
            "serve.client." + client + ".bytes_served");

        io::Json ok = io::Json::object();
        ok.set("type", "ok");
        ok.set("format", io::kWireFormat);
        ok.set("jobs", std::uint64_t(svc.config().jobs));
        ok.set("store", svc.config().storePath);
        bytes_served.add(session->conn.write(ok));

        std::map<std::uint64_t, sched::CampaignService::TicketPtr>
            tickets;
        io::Json msg;
        while (session->conn.read(msg)) {
            io::Json reply;
            try {
                reply = handleRequest(svc, client, tickets, msg);
            } catch (const std::exception &e) {
                // A bad spec or a failed store decode poisons the
                // request, not the session.
                reply = errorReply(e.what());
            }
            bytes_served.add(session->conn.write(reply));
        }
    } catch (const std::exception &e) {
        // Torn frames / vanished peers end the session, not the
        // daemon.
        std::fprintf(stderr, "merlin_serve: session '%s': %s\n",
                     client.c_str(), e.what());
    }
}

int
serve(const Args &args)
{
    const std::string socket_path = args.get("socket");
    if (socket_path.empty())
        fatal("merlin_serve requires --socket <path>");

    sched::CampaignService::Config cfg =
        tools::serviceConfigFromArgs(args);
    tools::startTelemetry(args);
    sched::CampaignService svc(cfg);

    if (::pipe(g_shutdownPipe) != 0)
        fatal("merlin_serve: pipe(): ", std::strerror(errno));
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    // A client that disconnects mid-reply must cost us an EPIPE error
    // on its own session, never a process-wide SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    const int listen_fd = io::wireListen(socket_path);
    std::printf("merlin_serve: listening on %s (store %s, jobs %u)\n",
                socket_path.c_str(),
                cfg.storePath.empty() ? "<memory>"
                                      : cfg.storePath.c_str(),
                cfg.jobs);
    std::fflush(stdout);

    SessionRegistry registry;

    for (;;) {
        pollfd fds[2] = {
            {listen_fd, POLLIN, 0},
            {g_shutdownPipe[0], POLLIN, 0},
        };
        const int n = ::poll(fds, 2, -1);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("merlin_serve: poll(): ", std::strerror(errno));
        }
        if (fds[1].revents & POLLIN)
            break; // shutdown requested (signal or wire)
        if (!(fds[0].revents & POLLIN))
            continue;
        const int client_fd = io::wireAccept(listen_fd);
        if (client_fd < 0)
            break; // listener closed under us
        auto session = std::make_shared<Session>(client_fd);
        {
            std::lock_guard<std::mutex> lk(registry.mu);
            registry.sessions.push_back(session);
        }
        session->thread = std::thread(
            [session, &svc] { runSession(session, svc); });
    }

    // Graceful drain: no new clients, no new submissions; queued work
    // is cancelled under the SIGTERM policy (a wire `shutdown` chose
    // its own flag); running campaigns complete, persist, and close
    // their journals before we exit.
    ::close(listen_fd);
    svc.beginShutdown(g_cancelQueued.load());
    {
        std::lock_guard<std::mutex> lk(registry.mu);
        for (const auto &s : registry.sessions)
            s->conn.shutdownBoth();
    }
    for (const auto &s : registry.sessions) {
        if (s->thread.joinable())
            s->thread.join();
    }
    svc.drain();
    ::unlink(socket_path.c_str());
    ::close(g_shutdownPipe[0]);
    ::close(g_shutdownPipe[1]);
    tools::finishTelemetry(args);
    std::printf("merlin_serve: drained, exiting\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = Args::parse(argc, argv, 1);
        tools::requireKnownFlags(args,
                                 {"socket", "store", "jobs", "quarantine",
                                  "trace", "metrics"},
                                 "merlin_serve");
        return serve(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}

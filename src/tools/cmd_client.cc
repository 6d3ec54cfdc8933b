/**
 * @file
 * `merlin_cli submit | status | result | shutdown`: the client side of
 * merlin-wire-v1, talking to a running merlin_serve daemon.
 *
 * `submit manifest.json --socket S` is a remote `suite`: every spec is
 * submitted (the daemon serves store hits and coalesces identical
 * in-flight specs), the client waits for each outcome in manifest
 * order and prints the SAME suite report the batch command prints —
 * the daemon's store stays the single source of truth for the bytes.
 * `status`/`result` query by spec content key, so any client can pick
 * up results another client's submissions produced.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "io/result_store.hh"
#include "io/wire.hh"
#include "merlin/campaign.hh"
#include "sched/suite.hh"
#include "tools/cli_cmds.hh"
#include "uarch/core.hh"
#include "workloads/workloads.hh"

namespace merlin::tools
{

namespace
{

/** Connect to --socket and run the hello handshake; fills @p hello_ok
 *  with the daemon's `ok` reply (jobs, store path). */
io::WireConnection
connectDaemon(const Args &args, io::Json &hello_ok)
{
    const std::string sock = args.get("socket");
    if (sock.empty())
        fatal("client commands require --socket <path>");
    io::WireConnection conn(io::wireConnect(sock));
    io::Json hello = io::Json::object();
    hello.set("type", "hello");
    hello.set("format", io::kWireFormat);
    hello.set("client", args.get("client", "cli"));
    conn.write(hello);
    if (!conn.read(hello_ok))
        fatal("daemon closed the connection during the handshake");
    if (hello_ok.strOr("type", "") == "error")
        fatal("daemon: ", hello_ok.strOr("error", "unknown error"));
    if (hello_ok.strOr("type", "") != "ok" ||
        hello_ok.strOr("format", "") != io::kWireFormat)
        fatal("unexpected handshake reply: ", hello_ok.dump());
    return conn;
}

/** One request/reply round trip; daemon `error` replies are fatal. */
io::Json
request(io::WireConnection &conn, const io::Json &msg)
{
    conn.write(msg);
    io::Json reply;
    if (!conn.read(reply))
        fatal("daemon closed the connection mid-request");
    if (reply.strOr("type", "") == "error")
        fatal("daemon: ", reply.strOr("error", "unknown error"));
    return reply;
}

} // namespace

int
cmdSubmit(const std::string &manifest_path, const Args &args)
{
    requireKnownFlags(args, {"socket", "client", "no-resume", "no-wait"},
                      "submit");
    const std::vector<sched::CampaignSpec> specs =
        loadManifestFile(manifest_path);
    const bool resume = !args.has("no-resume");

    io::Json hello_ok;
    io::WireConnection conn = connectDaemon(args, hello_ok);
    const auto t0 = std::chrono::steady_clock::now();

    for (std::size_t i = 0; i < specs.size(); ++i) {
        io::Json msg = io::Json::object();
        msg.set("type", "submit");
        msg.set("id", std::uint64_t(i));
        msg.set("spec", specs[i].toJson());
        msg.set("resume", resume);
        const io::Json reply = request(conn, msg);
        if (reply.strOr("type", "") != "submitted")
            fatal("unexpected submit reply: ", reply.dump());
        if (args.has("no-wait"))
            std::printf("submitted %s %s %s\n",
                        reply.strOr("key", "?").c_str(),
                        reply.strOr("state", "?").c_str(),
                        specs[i].workload.c_str());
    }
    if (args.has("no-wait"))
        return 0;

    // Wait for every outcome in manifest order and rebuild the batch
    // suite report from the replies (byte-identical table/summary —
    // the daemon's --jobs fills the trailer).
    sched::SuiteResult suite;
    suite.results.resize(specs.size());
    suite.cached.assign(specs.size(), false);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        io::Json msg = io::Json::object();
        msg.set("type", "result");
        msg.set("id", std::uint64_t(i));
        const io::Json reply = request(conn, msg);
        const std::string state = reply.strOr("state", "?");
        if (state != "done")
            fatal("campaign '", specs[i].workload, "' (key ",
                  reply.strOr("key", "?"), ") ended ", state,
                  reply.find("error")
                      ? ": " + reply.at("error").asString()
                      : std::string());
        suite.results[i] = io::resultFromJson(reply.at("result"));
        suite.cached[i] = reply.boolOr("cached", false);
        if (!suite.cached[i])
            ++suite.campaignsRun;
    }
    suite.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();

    sched::SuiteOptions ropts;
    ropts.jobs = static_cast<unsigned>(hello_ok.u64Or("jobs", 0));
    ropts.storePath = hello_ok.strOr("store", "");
    printSuiteReport(specs, suite, ropts);
    return 0;
}

int
cmdStatus(const Args &args)
{
    requireKnownFlags(args, {"socket", "client", "key"}, "status");
    io::Json hello_ok;
    io::WireConnection conn = connectDaemon(args, hello_ok);

    io::Json msg = io::Json::object();
    msg.set("type", "status");
    if (args.has("key"))
        msg.set("key", args.get("key"));
    const io::Json reply = request(conn, msg);

    if (args.has("key")) {
        std::printf("key %s: %s\n", args.get("key").c_str(),
                    reply.boolOr("known", false)
                        ? reply.strOr("state", "?").c_str()
                        : "unknown");
        return reply.boolOr("known", false) ? 0 : 1;
    }
    const io::Json *stats = reply.find("stats");
    if (!stats)
        fatal("unexpected status reply: ", reply.dump());
    std::printf("daemon on %s: %llu queued, %llu running%s\n",
                args.get("socket").c_str(),
                static_cast<unsigned long long>(
                    stats->u64Or("queued", 0)),
                static_cast<unsigned long long>(
                    stats->u64Or("running", 0)),
                reply.boolOr("draining", false) ? ", draining" : "");
    std::printf("submitted %llu, executed %llu, cache hits %llu, "
                "coalesced %llu, failed %llu, cancelled %llu\n",
                static_cast<unsigned long long>(
                    stats->u64Or("submitted", 0)),
                static_cast<unsigned long long>(
                    stats->u64Or("executed", 0)),
                static_cast<unsigned long long>(
                    stats->u64Or("cache_hits", 0)),
                static_cast<unsigned long long>(
                    stats->u64Or("coalesced", 0)),
                static_cast<unsigned long long>(
                    stats->u64Or("failed", 0)),
                static_cast<unsigned long long>(
                    stats->u64Or("cancelled", 0)));
    return 0;
}

int
cmdResult(const Args &args)
{
    requireKnownFlags(args, {"socket", "client", "key", "out"},
                      "result");
    const std::string key = args.get("key");
    if (key.empty())
        fatal("result requires --key <spec content key>");

    io::Json hello_ok;
    io::WireConnection conn = connectDaemon(args, hello_ok);
    io::Json msg = io::Json::object();
    msg.set("type", "result");
    msg.set("key", key);
    const io::Json reply = request(conn, msg);
    const std::string state = reply.strOr("state", "?");
    if (state != "done")
        fatal("key ", key, ": ", state,
              reply.find("error") ? ": " + reply.at("error").asString()
                                  : std::string());

    const std::string out = args.get("out");
    if (!out.empty()) {
        writeTextFile(out, reply.at("result").dump(2) + "\n");
        std::printf("result written to %s\n", out.c_str());
        return 0;
    }
    const core::CampaignResult r =
        io::resultFromJson(reply.at("result"));
    const sched::CampaignSpec spec =
        sched::CampaignSpec::fromJson(reply.at("spec"));
    const auto w = workloads::buildWorkload(spec.workload);
    const core::CampaignConfig cc = spec.campaignConfig(w);
    std::printf("== %s / %s ==\n", spec.workload.c_str(),
                uarch::structureName(cc.target));
    std::printf("spec key: %s\n", spec.key().c_str());
    printCampaign(r, structureBits(cc));
    return 0;
}

int
cmdShutdown(const Args &args)
{
    requireKnownFlags(args, {"socket", "client", "cancel-queued"},
                      "shutdown");
    io::Json hello_ok;
    io::WireConnection conn = connectDaemon(args, hello_ok);
    io::Json msg = io::Json::object();
    msg.set("type", "shutdown");
    msg.set("cancel_queued", args.has("cancel-queued"));
    const io::Json reply = request(conn, msg);
    if (reply.strOr("type", "") != "ok")
        fatal("unexpected shutdown reply: ", reply.dump());
    std::printf("daemon draining%s\n",
                args.has("cancel-queued")
                    ? " (queued submissions cancelled)"
                    : "");
    return 0;
}

} // namespace merlin::tools

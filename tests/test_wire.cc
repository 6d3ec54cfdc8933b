/**
 * @file
 * merlin-wire-v1 framing tests over socketpairs and a real Unix
 * socket: message round-trips, the clean-EOF vs truncated-frame
 * distinction, oversize/malformed-frame rejection, and stale-socket
 * replacement at bind time.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <thread>

#include "base/logging.hh"
#include "io/json.hh"
#include "io/wire.hh"
#include "mutants.hh"
#include "sched/suite.hh"

namespace merlin::io
{
namespace
{

/** A connected socketpair, each end owned by a WireConnection. */
struct WirePair
{
    WireConnection a, b;

    WirePair()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = WireConnection(fds[0]);
        b = WireConnection(fds[1]);
    }
};

TEST(Wire, MessagesRoundTripInOrder)
{
    WirePair p;
    Json req = Json::object();
    req.set("type", Json("status"));
    req.set("id", Json(std::uint64_t(7)));
    Json nested = Json::object();
    nested.set("resume", Json(true));
    req.set("opts", nested);

    const std::size_t bytes = p.a.write(req);
    EXPECT_GT(bytes, 0u);

    Json got;
    ASSERT_TRUE(p.b.read(got));
    // Framing must deliver the exact dump bytes, not a re-encoding.
    EXPECT_EQ(got.dump(), req.dump());
    EXPECT_EQ(got.strOr("type", ""), "status");
    EXPECT_EQ(got.u64Or("id", 0), 7u);

    // Several frames queued before any read stay ordered.
    for (int i = 0; i < 3; ++i) {
        Json m = Json::object();
        m.set("seq", Json(std::uint64_t(i)));
        p.b.write(m);
    }
    for (int i = 0; i < 3; ++i) {
        Json m;
        ASSERT_TRUE(p.a.read(m));
        EXPECT_EQ(m.u64Or("seq", 99), std::uint64_t(i));
    }
}

TEST(Wire, CleanEofIsFalseNotFatal)
{
    WirePair p;
    p.a = WireConnection(); // destroys a's end: close at frame boundary
    Json msg;
    EXPECT_FALSE(p.b.read(msg));
}

TEST(Wire, TruncatedFrameIsFatal)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // A length prefix promising 16 bytes, then only 4, then EOF: a
    // peer that died mid-frame must be distinguished from a clean
    // close.
    const unsigned char partial[] = {0, 0, 0, 16, '{', '"', 'a', '"'};
    ASSERT_EQ(::write(fds[0], partial, sizeof partial),
              static_cast<ssize_t>(sizeof partial));
    ::close(fds[0]);

    WireConnection conn(fds[1]);
    Json msg;
    EXPECT_THROW(conn.read(msg), FatalError);
}

TEST(Wire, OversizeFrameIsRejectedWithoutBuffering)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // Length prefix just past the cap; no payload needs to follow —
    // the reader must refuse on the prefix alone.
    const std::uint32_t len = kWireMaxFrame + 1;
    const unsigned char prefix[] = {
        static_cast<unsigned char>(len >> 24),
        static_cast<unsigned char>(len >> 16),
        static_cast<unsigned char>(len >> 8),
        static_cast<unsigned char>(len),
    };
    ASSERT_EQ(::write(fds[0], prefix, sizeof prefix),
              static_cast<ssize_t>(sizeof prefix));

    WireConnection conn(fds[1]);
    Json msg;
    EXPECT_THROW(conn.read(msg), FatalError);
    ::close(fds[0]);
}

TEST(Wire, MalformedAndNonObjectPayloadsAreFatal)
{
    for (const std::string payload : {"{\"a\":", "[1,2,3]", "42"}) {
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        wireWriteFrame(fds[0], payload);
        WireConnection conn(fds[1]);
        Json msg;
        EXPECT_THROW(conn.read(msg), FatalError)
            << "payload: " << payload;
        ::close(fds[0]);
    }
}

TEST(Wire, RawFramesCarryArbitraryBytes)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::string payload("\x00\x01\xffraw", 6);
    wireWriteFrame(fds[0], payload);
    std::string got;
    ASSERT_TRUE(wireReadFrame(fds[1], got));
    EXPECT_EQ(got, payload);

    ::close(fds[0]);
    EXPECT_FALSE(wireReadFrame(fds[1], got)); // clean EOF
    ::close(fds[1]);
}

TEST(Wire, ListenConnectAcceptAndStaleSocketReplacement)
{
    const std::string path =
        testing::TempDir() + "merlin_wire_test.sock";
    ::unlink(path.c_str());

    int listener = wireListen(path);
    ASSERT_GE(listener, 0);

    Json reply;
    std::thread server([&] {
        WireConnection conn(wireAccept(listener));
        Json msg;
        ASSERT_TRUE(conn.read(msg));
        msg.set("echoed", Json(true));
        conn.write(msg);
    });

    {
        WireConnection client(wireConnect(path));
        Json hello = Json::object();
        hello.set("type", Json("hello"));
        client.write(hello);
        ASSERT_TRUE(client.read(reply));
    }
    server.join();
    EXPECT_TRUE(reply.boolOr("echoed", false));
    ::close(listener);

    // The socket file is still on disk but nothing is bound: the next
    // daemon must treat it as stale and bind anyway.
    int relisten = wireListen(path);
    EXPECT_GE(relisten, 0);
    ::close(relisten);
    ::unlink(path.c_str());
}

/**
 * Parser mutators: every strict prefix and every single-bit flip of a
 * valid submit frame (length prefix, JSON payload, campaign spec) is
 * either read or refused with FatalError — never a crash, another
 * exception or a sanitizer report.
 */
TEST(WireFuzz, SubmitFrameMutantsParseOrFailCleanly)
{
    sched::CampaignSpec spec;
    spec.workload = "qsort";
    spec.sampling = core::specFixed(50);
    Json submit = Json::object();
    submit.set("type", Json("submit"));
    submit.set("id", Json(std::uint64_t(3)));
    submit.set("spec", spec.toJson());

    // The frame as it travels: a socketpair captures the exact bytes.
    std::string frame;
    {
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        wireWriteFrame(fds[0], submit.dump());
        ::close(fds[0]);
        char buf[4096];
        ssize_t n;
        while ((n = ::read(fds[1], buf, sizeof buf)) > 0)
            frame.append(buf, static_cast<std::size_t>(n));
        ::close(fds[1]);
    }
    ASSERT_EQ(frame.size(), submit.dump().size() + 4);

    // Deliver the bytes, close the sender, read one message, and parse
    // its spec the way the daemon does.
    const auto read = [](const std::string &bytes) {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0)
            throw std::runtime_error("socketpair failed");
        WireConnection reader(fds[1]);
        const bool sent =
            ::write(fds[0], bytes.data(), bytes.size()) ==
            static_cast<ssize_t>(bytes.size());
        ::close(fds[0]);
        if (!sent)
            throw std::runtime_error("short write");
        Json msg;
        if (!reader.read(msg))
            return;
        if (const Json *s = msg.find("spec"))
            sched::CampaignSpec::fromJson(*s);
    };
    read(frame); // the valid frame parses

    // Only the empty prefix is a clean EOF; every other one is torn.
    const test::MutantTally prefixes = test::feedPrefixes(frame, read);
    EXPECT_EQ(prefixes.accepted, 1u);
    EXPECT_EQ(prefixes.rejected, frame.size() - 1);
    const test::MutantTally flips = test::feedBitFlips(frame, read);
    EXPECT_GT(flips.rejected, 0u);
    EXPECT_EQ(flips.accepted + flips.rejected, frame.size() * 8);
}

} // namespace
} // namespace merlin::io

// TCP transport property suite: endpoint parsing, framing over real
// sockets (partial reads, truncation at every byte boundary, oversized
// frames), socket I/O with and without a deadline on blocking and
// non-blocking ends, the byte-pinned framed handshake, structured
// connect/timeout errors naming host:port, the worker's frame loop
// (exec::serve_channel) driven in process, and the remote backend (a
// fleet_executor over a private worker fleet) running over
// tcp_transport_factory against REAL `quorum_worker --listen` processes
// with lane counts that round-robin over fewer workers.
//
// The in-process cases use AF_UNIX socketpairs adopted by the transport
// (identical code path to a TCP fd), so the framing properties all run
// under the sanitizer job without touching the network stack.
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "exec/registry.h"
#include "exec/fleet.h"
#include "exec/serialise.h"
#include "exec/tcp_transport.h"
#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "util/contracts.h"
#include "util/net.h"
#include "util/rng.h"

namespace {

using namespace quorum;

// --- endpoint parsing -------------------------------------------------------

TEST(NetEndpoint, ParsesHostPortForms) {
    const util::endpoint full = util::parse_endpoint("127.0.0.1:8400");
    EXPECT_EQ(full.host, "127.0.0.1");
    EXPECT_EQ(full.port, 8400);
    EXPECT_EQ(full.str(), "127.0.0.1:8400");

    const util::endpoint bare = util::parse_endpoint("8400");
    EXPECT_EQ(bare.host, "127.0.0.1");
    EXPECT_EQ(bare.port, 8400);

    const util::endpoint colon = util::parse_endpoint(":8400");
    EXPECT_EQ(colon.host, "127.0.0.1");
    EXPECT_EQ(colon.port, 8400);
}

TEST(NetEndpoint, RejectsMalformedText) {
    for (const char* bad : {"", ":", "127.0.0.1:", "127.0.0.1:0x10",
                            "127.0.0.1:65536", "127.0.0.1:-1", "host:12",
                            "127.0.0.1:12:13", "127.0.0.1:nan", "1 2"}) {
        EXPECT_THROW((void)util::parse_endpoint(bad), util::contract_error)
            << "accepted \"" << bad << "\"";
    }
}

// --- framing over a socketpair ----------------------------------------------

/// An adopted socketpair channel: `mine` is the transport's socket,
/// `theirs` is the test's raw view of the wire.
struct wire_pair {
    exec::tcp_transport transport;
    util::unique_fd theirs;

    static wire_pair make(exec::tcp_options options = {}) {
        int fds[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
            throw std::runtime_error("socketpair failed");
        }
        return wire_pair{
            exec::tcp_transport(util::unique_fd(fds[0]), "test-peer:0",
                                options),
            util::unique_fd(fds[1])};
    }
};

std::vector<std::uint8_t> frame(std::span<const std::uint8_t> payload) {
    std::vector<std::uint8_t> bytes(4 + payload.size());
    const auto size = static_cast<std::uint32_t>(payload.size());
    for (int shift = 0; shift < 32; shift += 8) {
        bytes[static_cast<std::size_t>(shift / 8)] =
            static_cast<std::uint8_t>(size >> shift);
    }
    if (!payload.empty()) {
        std::memcpy(bytes.data() + 4, payload.data(), payload.size());
    }
    return bytes;
}

void write_raw(int fd, const void* data, std::size_t size) {
    const char* bytes = static_cast<const char*>(data);
    std::size_t sent = 0;
    while (sent < size) {
        const ssize_t n = ::write(fd, bytes + sent, size - sent);
        ASSERT_GT(n, 0) << "raw write failed: " << std::strerror(errno);
        sent += static_cast<std::size_t>(n);
    }
}

std::vector<std::uint8_t> read_raw(int fd, std::size_t size) {
    std::vector<std::uint8_t> bytes(size);
    std::size_t received = 0;
    while (received < size) {
        const ssize_t n =
            ::read(fd, bytes.data() + received, size - received);
        if (n <= 0) {
            ADD_FAILURE() << "raw read failed";
            return bytes;
        }
        received += static_cast<std::size_t>(n);
    }
    return bytes;
}

TEST(TcpTransport, SendMessageEmitsLengthPrefixedFrames) {
    wire_pair pair = wire_pair::make();
    const std::vector<std::uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x05};
    pair.transport.send_message(payload);
    const std::vector<std::uint8_t> wire_bytes =
        read_raw(pair.theirs.get(), 4 + payload.size());
    const std::vector<std::uint8_t> expected = frame(payload);
    EXPECT_EQ(wire_bytes, expected);
}

TEST(TcpTransport, RecvMessageReassemblesByteDribbledFrames) {
    // The peer trickles the frame one byte at a time: recv_message must
    // assemble across arbitrarily fragmented reads (TCP guarantees
    // nothing about segment boundaries).
    wire_pair pair = wire_pair::make();
    std::vector<std::uint8_t> payload(97);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
    }
    const std::vector<std::uint8_t> bytes = frame(payload);
    std::thread dribbler([&] {
        for (const std::uint8_t byte : bytes) {
            write_raw(pair.theirs.get(), &byte, 1);
        }
    });
    const std::vector<std::uint8_t> received = pair.transport.recv_message();
    dribbler.join();
    EXPECT_EQ(received, payload);
}

TEST(TcpTransport, EmptyPayloadRoundTrips) {
    wire_pair pair = wire_pair::make();
    const std::vector<std::uint8_t> bytes = frame({});
    write_raw(pair.theirs.get(), bytes.data(), bytes.size());
    EXPECT_TRUE(pair.transport.recv_message().empty());
}

TEST(TcpTransport, TruncationAtEveryByteBoundaryIsATransportError) {
    // The peer sends the first `cut` bytes of a valid frame and closes.
    // For EVERY cut point — inside the header, at the header/payload
    // boundary, inside the payload — the transport must throw
    // transport_error naming the peer, never hang or return garbage.
    const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};
    const std::vector<std::uint8_t> bytes = frame(payload);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        wire_pair pair = wire_pair::make();
        write_raw(pair.theirs.get(), bytes.data(), cut);
        pair.theirs.reset(); // EOF after `cut` bytes
        try {
            (void)pair.transport.recv_message();
            FAIL() << "cut=" << cut << ": expected transport_error";
        } catch (const exec::transport_error& error) {
            EXPECT_NE(std::strstr(error.what(), "test-peer:0"), nullptr)
                << "cut=" << cut << ": " << error.what();
        }
    }
}

TEST(TcpTransport, CorruptedLengthHeaderIsAStructuredError) {
    // A garbled length header that decodes past max_message_bytes must be
    // rejected before any allocation attempt.
    wire_pair pair = wire_pair::make();
    const std::uint8_t huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
    write_raw(pair.theirs.get(), huge, sizeof(huge));
    try {
        (void)pair.transport.recv_message();
        FAIL() << "expected transport_error";
    } catch (const exec::transport_error& error) {
        EXPECT_NE(std::strstr(error.what(), "oversized frame"), nullptr)
            << error.what();
        EXPECT_NE(std::strstr(error.what(), "test-peer:0"), nullptr)
            << error.what();
    }
}

TEST(TcpTransport, OversizedSendIsRejectedLocally) {
    wire_pair pair = wire_pair::make();
    // Don't allocate 256 MiB: an empty span with a forged size is not
    // constructible, so check the guard just above the limit via the
    // documented constant and a sized-but-cheap vector.
    std::vector<std::uint8_t> too_big;
    EXPECT_NO_THROW(too_big.resize(exec::wire::max_message_bytes + 1));
    EXPECT_THROW(pair.transport.send_message(too_big),
                 util::contract_error);
}

TEST(TcpTransport, ReadTimeoutSurfacesAsTransportErrorNamingThePeer) {
    exec::tcp_options options;
    options.io_timeout_ms = 50;
    wire_pair pair = wire_pair::make(options); // silent peer
    try {
        (void)pair.transport.recv_message();
        FAIL() << "expected transport_error";
    } catch (const exec::transport_error& error) {
        EXPECT_NE(std::strstr(error.what(), "test-peer:0"), nullptr)
            << error.what();
    }
}

TEST(TcpTransport, ConnectionRefusedNamesTheEndpoint) {
    // Bind an ephemeral port, learn it, close the listener: connecting to
    // it afterwards is a guaranteed refusal on loopback.
    std::uint16_t dead_port = 0;
    {
        const util::unique_fd listener =
            util::listen_tcp(util::endpoint{"127.0.0.1", 0});
        dead_port = util::bound_port(listener.get());
    }
    const util::endpoint dead{"127.0.0.1", dead_port};
    exec::tcp_options options;
    options.connect_timeout_ms = 2000;
    try {
        const exec::tcp_transport transport(dead, options);
        FAIL() << "expected transport_error";
    } catch (const exec::transport_error& error) {
        EXPECT_NE(std::strstr(error.what(), dead.str().c_str()), nullptr)
            << error.what();
    }
}

// --- socket I/O with and without a deadline ---------------------------------
//
// util::send_all and util::recv_all_or_eof with timeout_ms < 0 (process
// lanes) make the I/O call first and poll only after EAGAIN. Each such
// case runs on a blocking end, where the call itself waits, and on a
// non-blocking one, where it meets EAGAIN and must poll. A bounded send
// keeps its deadline on a blocking end.

/// A socketpair; the first end, the one under test, optionally
/// non-blocking.
std::pair<util::unique_fd, util::unique_fd> socket_ends(bool nonblocking) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        throw std::runtime_error("socketpair failed");
    }
    if (nonblocking &&
        ::fcntl(fds[0], F_SETFL, ::fcntl(fds[0], F_GETFL) | O_NONBLOCK) != 0) {
        throw std::runtime_error("fcntl failed");
    }
    return {util::unique_fd(fds[0]), util::unique_fd(fds[1])};
}

std::vector<std::uint8_t> patterned_bytes(std::size_t size) {
    std::vector<std::uint8_t> bytes(size);
    for (std::size_t i = 0; i < size; ++i) {
        bytes[i] = static_cast<std::uint8_t>(i * 31 % 251);
    }
    return bytes;
}

TEST(NetIo, UnboundedSendLargerThanTheSocketBufferCompletes) {
    // 1 MiB is several socketpair buffers: the send waits on the reader
    // thread draining the far end.
    const std::vector<std::uint8_t> payload =
        patterned_bytes(std::size_t{1} << 20);
    for (const bool nonblocking : {false, true}) {
        auto [mine, theirs] = socket_ends(nonblocking);
        std::vector<std::uint8_t> received;
        std::thread reader([&received, fd = theirs.get(), &payload] {
            received = read_raw(fd, payload.size());
        });
        EXPECT_NO_THROW(util::send_all(mine.get(), payload.data(),
                                       payload.size(), -1, "peer"));
        mine.reset(); // the reader ends even if the send failed
        reader.join();
        EXPECT_EQ(received, payload) << "non-blocking: " << nonblocking;
    }
}

TEST(NetIo, UnboundedReceiveAssemblesBytesArrivingInPieces) {
    const std::vector<std::uint8_t> payload = patterned_bytes(40000);
    for (const bool nonblocking : {false, true}) {
        auto [mine, theirs] = socket_ends(nonblocking);
        std::thread writer([&payload, fd = theirs.get()] {
            for (std::size_t at = 0; at < payload.size(); at += 4000) {
                std::this_thread::sleep_for(std::chrono::microseconds(300));
                write_raw(fd, payload.data() + at, 4000);
            }
        });
        std::vector<std::uint8_t> received(payload.size());
        bool complete = false;
        EXPECT_NO_THROW(complete = util::recv_all_or_eof(
                            mine.get(), received.data(), received.size(),
                            -1, "peer"));
        writer.join();
        EXPECT_TRUE(complete);
        EXPECT_EQ(received, payload) << "non-blocking: " << nonblocking;

        // A close inside a message is an error; one between messages is
        // the clean end.
        write_raw(theirs.get(), payload.data(), 10);
        theirs.reset();
        EXPECT_THROW((void)util::recv_all_or_eof(mine.get(), received.data(),
                                                 20, -1, "peer"),
                     util::net_error);
        EXPECT_FALSE(util::recv_all_or_eof(mine.get(), received.data(), 1,
                                           -1, "peer"));
    }
}

TEST(NetIo, BoundedSendToAPeerThatStopsReadingTimesOut) {
    // The payload overfills the socket buffer of a blocking end: the
    // deadline must hold inside the payload, not only between calls.
    const std::vector<std::uint8_t> payload =
        patterned_bytes(std::size_t{1} << 20);
    auto [mine, theirs] = socket_ends(false);
    const auto start = std::chrono::steady_clock::now();
    try {
        util::send_all(mine.get(), payload.data(), payload.size(), 100,
                       "silent-peer");
        FAIL() << "a peer that never reads took 1 MiB";
    } catch (const util::net_error& error) {
        EXPECT_STREQ(error.what(), "silent-peer: send timed out");
    }
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(30));
}

// --- byte-pinned handshake over the framed channel --------------------------

TEST(TcpTransport, FramedHelloMatchesTheDocumentedBytes) {
    // The exact frame a worker sees when a default-config statevector
    // client dials in: 4-byte length prefix (81 = 0x51) + the hello
    // payload documented in docs/ARCHITECTURE.md (and pinned unframed in
    // test_serialise.cpp). If this breaks, the wire format changed —
    // bump protocol_version AND update the docs.
    wire_pair pair = wire_pair::make();
    pair.transport.send_message(
        exec::wire::encode_hello("statevector", exec::engine_config{}));
    const std::uint8_t doc_frame[] = {
        0x51, 0x00, 0x00, 0x00,  // frame length: 81
        0x01,                    // message type: hello
        0x51, 0x52, 0x4D, 0x57,  // magic "QRMW"
        0x03, 0x00, 0x00, 0x00,  // protocol version 3
        0x0B, 0x00, 0x00, 0x00,  // inner name length: 11
        's', 't', 'a', 't', 'e', 'v', 'e', 'c', 't', 'o', 'r',
        0x00,                                            // sampling: exact
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // shots: 0
        0x00, 0x00, 0x00, 0x00,  // depolarizing entries: 0
        0x00, 0x00, 0x00, 0x00,  // duration entries: 0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // t1_us: 0.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // t2_us: 0.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // P(1|0): 0.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // P(0|1): 0.0
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // measure ns
    };
    const std::vector<std::uint8_t> wire_bytes =
        read_raw(pair.theirs.get(), sizeof(doc_frame));
    ASSERT_EQ(wire_bytes.size(), sizeof(doc_frame));
    EXPECT_EQ(std::memcmp(wire_bytes.data(), doc_frame, sizeof(doc_frame)),
              0);
}

TEST(TcpTransport, HandshakeAckRoundTripsOverTheFramedChannel) {
    // Full framed handshake against an in-process worker_session on the
    // far end of the socketpair: frame in, frame out, ack checks clean.
    wire_pair pair = wire_pair::make();
    std::thread worker_side([&] {
        const std::vector<std::uint8_t> header =
            read_raw(pair.theirs.get(), 4);
        std::uint32_t size = 0;
        for (int shift = 0; shift < 32; shift += 8) {
            size |= static_cast<std::uint32_t>(
                        header[static_cast<std::size_t>(shift / 8)])
                    << shift;
        }
        const std::vector<std::uint8_t> request =
            read_raw(pair.theirs.get(), size);
        exec::worker_session session;
        const std::vector<std::uint8_t> framed =
            frame(session.handle(request));
        write_raw(pair.theirs.get(), framed.data(), framed.size());
    });
    pair.transport.send_message(
        exec::wire::encode_hello("statevector", exec::engine_config{}));
    const std::vector<std::uint8_t> ack = pair.transport.recv_message();
    worker_side.join();
    EXPECT_NO_THROW(exec::wire::check_hello_ack(ack, "test-peer:0"));
}

struct tcp_batch_fixture {
    qml::ansatz_params params;
    std::vector<std::vector<double>> amplitudes;

    explicit tcp_batch_fixture(std::uint64_t seed, std::size_t samples = 12) {
        util::rng gen(seed);
        params = qml::random_ansatz_params(3, 2, gen);
        amplitudes.resize(samples);
        for (auto& amps : amplitudes) {
            std::vector<double> features(7);
            for (double& f : features) {
                f = gen.uniform() / 7.0;
            }
            amps = qml::to_amplitudes(features, 3);
        }
    }

    [[nodiscard]] std::vector<exec::sample>
    make_samples(std::vector<util::rng>* gens = nullptr) const {
        std::vector<exec::sample> samples(amplitudes.size());
        for (std::size_t i = 0; i < amplitudes.size(); ++i) {
            samples[i].amplitudes = amplitudes[i];
            if (gens != nullptr) {
                samples[i].gen = &(*gens)[i];
            }
        }
        return samples;
    }

    [[nodiscard]] std::vector<util::rng> make_gens(std::uint64_t seed) const {
        std::vector<util::rng> gens;
        gens.reserve(amplitudes.size());
        for (std::size_t i = 0; i < amplitudes.size(); ++i) {
            gens.emplace_back(util::derive_seed(seed, i));
        }
        return gens;
    }
};

exec::program tcp_analytic_program(const qml::ansatz_params& params,
                                   std::size_t level) {
    exec::program program;
    program.circuit = qsim::compiled_program::compile(
        qml::autoencoder_reg_a_template(params, level));
    program.readout.kind = exec::readout_kind::prep_overlap_p1;
    return program;
}

// --- the worker's frame loop, in process -----------------------------------

/// Everything readable from `fd` until EOF.
std::vector<std::uint8_t> read_to_eof(int fd) {
    std::vector<std::uint8_t> bytes;
    std::uint8_t buffer[4096];
    for (ssize_t n = 0; (n = ::read(fd, buffer, sizeof(buffer))) > 0;) {
        bytes.insert(bytes.end(), buffer, buffer + n);
    }
    return bytes;
}

struct served {
    exec::channel_outcome outcome;
    std::vector<std::uint8_t> written; ///< every byte the loop sent back
};

/// Writes `bytes` into one end of a socketpair, closes that end for
/// writing, and serves the other end with serve_channel until it ends.
served serve_bytes(std::span<const std::uint8_t> bytes) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
        throw std::runtime_error("socketpair failed");
    }
    const util::unique_fd client(fds[0]);
    util::unique_fd worker(fds[1]);
    write_raw(client.get(), bytes.data(), bytes.size());
    ::shutdown(client.get(), SHUT_WR);
    served result{exec::serve_channel(worker.get(), worker.get()), {}};
    worker.reset();
    result.written = read_to_eof(client.get());
    return result;
}

std::vector<std::uint8_t> framed_hello() {
    return frame(
        exec::wire::encode_hello("statevector", exec::engine_config{}));
}

TEST(WorkerChannel, ServesHelloASpanAndShutdownToATransport) {
    // serve_channel on one end of a socketpair, the transport the fleet
    // uses on the other: the span's reply is exactly the result reply
    // of the plain backend's scores, and shutdown gets no reply.
    const tcp_batch_fixture fixture(97, 5);
    const exec::program prog = tcp_analytic_program(fixture.params, 1);
    const std::vector<exec::sample> samples = fixture.make_samples();
    std::vector<double> reference(samples.size());
    exec::make_executor("statevector", exec::engine_config{})
        ->run_batch(prog, samples, reference);

    wire_pair pair = wire_pair::make();
    exec::channel_outcome outcome;
    std::thread worker([&] {
        outcome = exec::serve_channel(pair.theirs.get(), pair.theirs.get());
    });
    pair.transport.send_message(
        exec::wire::encode_hello("statevector", exec::engine_config{}));
    EXPECT_NO_THROW(exec::wire::check_hello_ack(
        pair.transport.recv_message(), "test-peer:0"));
    exec::wire::writer block;
    exec::wire::encode_program(block, prog);
    const exec::shard_work span{0, 0, samples.size(), nullptr};
    pair.transport.send_message(exec::wire::encode_span_request(
        span, block.data(), samples, 0, false));
    EXPECT_EQ(pair.transport.recv_message(),
              exec::wire::encode_result_reply(reference));
    pair.transport.send_message(exec::wire::encode_shutdown());
    worker.join();
    EXPECT_EQ(outcome.end, exec::channel_end::shutdown);
    EXPECT_EQ(outcome.error, "");
    pair.theirs.reset(); // the channel holds no reply to the shutdown
    EXPECT_THROW((void)pair.transport.recv_message(), exec::transport_error);
}

TEST(WorkerChannel, TruncatedRequestEndsInAFailureWithoutAReply) {
    // The client sends the first `cut` bytes of a hello frame and closes:
    // at every cut inside the header or the payload the loop ends with a
    // failure naming its peer, and has written nothing.
    const std::vector<std::uint8_t> bytes = framed_hello();
    for (std::size_t cut = 1; cut < bytes.size(); ++cut) {
        const served run = serve_bytes({bytes.data(), cut});
        EXPECT_EQ(run.outcome.end, exec::channel_end::failure)
            << "cut=" << cut;
        EXPECT_EQ(run.outcome.error.rfind("client: ", 0), 0u)
            << "cut=" << cut << ": " << run.outcome.error;
        EXPECT_TRUE(run.written.empty()) << "cut=" << cut;
    }
}

TEST(WorkerChannel, OversizedLengthHeaderIsRejectedBeforeAllocating) {
    // max_message_bytes + 1 would be a cheap allocation: a loop that
    // allocated before checking would fail later, on the missing
    // payload, with a different error.
    for (const std::uint64_t size :
         {std::uint64_t{exec::wire::max_message_bytes} + 1,
          std::uint64_t{0xFFFFFFFF}}) {
        std::uint8_t header[4];
        for (int shift = 0; shift < 32; shift += 8) {
            header[shift / 8] = static_cast<std::uint8_t>(size >> shift);
        }
        const served run = serve_bytes(header);
        EXPECT_EQ(run.outcome.end, exec::channel_end::failure) << size;
        EXPECT_NE(run.outcome.error.find("oversized frame (" +
                                         std::to_string(size) + " bytes)"),
                  std::string::npos)
            << run.outcome.error;
        EXPECT_TRUE(run.written.empty()) << size;
    }
}

TEST(WorkerChannel, CloseBetweenFramesIsACleanEnd) {
    const served idle = serve_bytes({});
    EXPECT_EQ(idle.outcome.end, exec::channel_end::clean_close);
    EXPECT_TRUE(idle.written.empty());

    // After a whole request: the reply is sent, then the close is clean.
    const std::vector<std::uint8_t> hello = framed_hello();
    const served after = serve_bytes(hello);
    EXPECT_EQ(after.outcome.end, exec::channel_end::clean_close);
    EXPECT_EQ(after.outcome.error, "");
    EXPECT_EQ(after.written,
              frame(exec::worker_session{}.handle(
                  std::span<const std::uint8_t>(hello).subspan(4))));
}

TEST(WorkerChannel, ServesPipesAsWellAsSockets) {
    // A worker's stdin and stdout need not be sockets: a pipe (or
    // /dev/null) is read and written as well.
    int in[2];
    int out[2];
    ASSERT_EQ(::pipe(in), 0);
    ASSERT_EQ(::pipe(out), 0);
    const util::unique_fd in_read(in[0]);
    util::unique_fd in_write(in[1]);
    const util::unique_fd out_read(out[0]);
    util::unique_fd out_write(out[1]);
    const std::vector<std::uint8_t> hello = framed_hello();
    write_raw(in_write.get(), hello.data(), hello.size());
    in_write.reset();
    const exec::channel_outcome outcome =
        exec::serve_channel(in_read.get(), out_write.get());
    out_write.reset();
    EXPECT_EQ(outcome.end, exec::channel_end::clean_close) << outcome.error;
    EXPECT_EQ(read_to_eof(out_read.get()),
              frame(exec::worker_session{}.handle(
                  std::span<const std::uint8_t>(hello).subspan(4))));
}

// --- real `quorum_worker --listen` processes --------------------------------

#ifdef QUORUM_WORKER_BIN

/// Spawns `quorum_worker --listen 127.0.0.1:0` and parses the bound port
/// from its stdout line. SIGKILL + reap on teardown (the worker runs
/// until killed by design).
class listen_worker {
public:
    listen_worker() {
        int out_pipe[2];
        if (::pipe(out_pipe) != 0) {
            throw std::runtime_error("pipe failed");
        }
        pid_ = ::fork();
        if (pid_ == 0) {
            ::dup2(out_pipe[1], STDOUT_FILENO);
            ::close(out_pipe[0]);
            ::close(out_pipe[1]);
            ::execl(QUORUM_WORKER_BIN, QUORUM_WORKER_BIN, "--listen",
                    "127.0.0.1:0", static_cast<char*>(nullptr));
            std::perror("execl quorum_worker");
            ::_exit(127);
        }
        ::close(out_pipe[1]);
        std::string line;
        char byte = 0;
        while (::read(out_pipe[0], &byte, 1) == 1 && byte != '\n') {
            line.push_back(byte);
        }
        ::close(out_pipe[0]);
        const std::string tag = "listening on 127.0.0.1:";
        const std::size_t at = line.find(tag);
        if (at == std::string::npos) {
            throw std::runtime_error("worker did not announce its port: " +
                                     line);
        }
        endpoint_.host = "127.0.0.1";
        endpoint_.port = static_cast<std::uint16_t>(
            std::stoul(line.substr(at + tag.size())));
    }

    ~listen_worker() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    listen_worker(const listen_worker&) = delete;
    listen_worker& operator=(const listen_worker&) = delete;

    [[nodiscard]] const util::endpoint& where() const { return endpoint_; }
    void kill_now() {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
            pid_ = -1;
        }
    }

private:
    pid_t pid_ = -1;
    util::endpoint endpoint_;
};

TEST(TcpWorker, RemoteBackendOverTcpMatchesThePlainBackend) {
    // Two real --listen workers; lane counts {1, 2, 4} round-robin the
    // connections (4 lanes = 2 per worker, served concurrently). Scores
    // must be IEEE == to the plain inner backend at every lane count —
    // the same invariance the loopback suite proves, now across sockets.
    const tcp_batch_fixture fixture(91);
    exec::engine_config config;
    config.sampling_mode = exec::sampling::binomial;
    config.shots = 256;
    std::vector<double> reference(fixture.amplitudes.size());
    {
        const auto inner = exec::make_executor("statevector", config);
        std::vector<util::rng> gens = fixture.make_gens(7);
        inner->run_batch(tcp_analytic_program(fixture.params, 1),
                         fixture.make_samples(&gens), reference);
    }

    listen_worker worker_a;
    listen_worker worker_b;
    const std::vector<util::endpoint> endpoints = {worker_a.where(),
                                                   worker_b.where()};
    for (const std::size_t lanes : {1u, 2u, 4u}) {
        config.shards = lanes;
        const exec::fleet_executor engine(
            config, "statevector", exec::tcp_transport_factory(endpoints));
        std::vector<util::rng> gens = fixture.make_gens(7);
        std::vector<double> out(fixture.amplitudes.size());
        engine.run_batch(tcp_analytic_program(fixture.params, 1),
                         fixture.make_samples(&gens), out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i], reference[i])
                << "lanes=" << lanes << " sample=" << i;
        }
    }
}

TEST(TcpWorker, ListenWorkerOutlivesItsClients) {
    // Three sequential client connections to ONE worker, each a complete
    // handshake+span session: the worker must survive every disconnect
    // and serve the next client from a fresh session.
    const tcp_batch_fixture fixture(93, 6);
    exec::engine_config config;
    std::vector<double> reference(fixture.amplitudes.size());
    exec::make_executor("statevector", config)
        ->run_batch(tcp_analytic_program(fixture.params, 1),
                    fixture.make_samples(), reference);

    listen_worker worker;
    config.shards = 1;
    for (int round = 0; round < 3; ++round) {
        const exec::fleet_executor engine(
            config, "statevector",
            exec::tcp_transport_factory({worker.where()}));
        std::vector<double> out(fixture.amplitudes.size());
        engine.run_batch(tcp_analytic_program(fixture.params, 1),
                         fixture.make_samples(), out);
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i], reference[i]) << "round=" << round << " "
                                            << i;
        }
    } // engine (and its connections) torn down each round
}

TEST(TcpWorker, ForgedProtocolVersionIsRejectedOverTcp) {
    // Hand-build a hello claiming a future protocol version and push it
    // through a raw tcp_transport to a REAL worker: the reply must be a
    // structured error naming the version, not a crash or an ack.
    listen_worker worker;
    exec::tcp_transport transport(worker.where());
    exec::wire::writer forged;
    forged.u8(static_cast<std::uint8_t>(exec::wire::message::hello));
    forged.u32(exec::wire::protocol_magic);
    forged.u32(exec::wire::protocol_version + 9);
    forged.str("statevector");
    transport.send_message(forged.data());
    const std::vector<std::uint8_t> reply = transport.recv_message();
    try {
        exec::wire::check_hello_ack(reply, worker.where().str());
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        EXPECT_NE(std::strstr(error.what(), "protocol version"), nullptr)
            << error.what();
    }
}

TEST(TcpWorker, DeadWorkerMidSpanSurfacesThroughTheFaultModel) {
    // SIGKILL the only worker before the first batch: the lane's connect
    // is refused through its whole rejoin budget, and the failure
    // surfaces as the fault model's structured contract_error naming the
    // lane and span.
    const tcp_batch_fixture fixture(95, 4);
    exec::engine_config config;
    config.shards = 1;
    listen_worker worker;
    const exec::fleet_executor engine(
        config, "statevector",
        exec::tcp_transport_factory({worker.where()}));
    worker.kill_now();
    std::vector<double> out(fixture.amplitudes.size());
    try {
        engine.run_batch(tcp_analytic_program(fixture.params, 1),
                         fixture.make_samples(), out);
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        EXPECT_NE(std::strstr(error.what(), "remote worker "), nullptr)
            << error.what();
    }
}

#endif // QUORUM_WORKER_BIN

} // namespace

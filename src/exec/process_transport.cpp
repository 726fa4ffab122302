#include "exec/process_transport.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

namespace quorum::exec {

process_transport::process_transport(const std::string& binary) {
    int sv[2] = {-1, -1};
    // CLOEXEC matters: without it every later-spawned worker inherits the
    // earlier lanes' client-side fds, so closing a lane would no longer
    // deliver EOF to its worker (it would block forever — and so would
    // the destructor's waitpid). The child's own end survives exec via
    // dup2 onto stdin/stdout, which clears the flag on the new fds.
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
        throw transport_error(std::string("socketpair failed: ") +
                              std::strerror(errno));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
        const int error = errno;
        ::close(sv[0]);
        ::close(sv[1]);
        throw transport_error(std::string("fork failed: ") +
                              std::strerror(error));
    }
    if (pid == 0) {
        // Child: the worker speaks the protocol on stdin/stdout. Lanes
        // are forked from the multi-threaded ensemble pool, so between
        // fork and exec only async-signal-safe calls are allowed —
        // close/dup2/execv; no PATH search (default_worker_binary
        // resolves it in the parent), no allocation.
        ::close(sv[0]);
        if (::dup2(sv[1], STDIN_FILENO) < 0 ||
            ::dup2(sv[1], STDOUT_FILENO) < 0) {
            ::_exit(127);
        }
        ::close(sv[1]);
        char* const argv[] = {const_cast<char*>(binary.c_str()), nullptr};
        ::execv(binary.c_str(), argv);
        // Exec failure: exit silently; the parent sees EOF on its first
        // recv, a transport_error naming the binary.
        ::_exit(127);
    }
    ::close(sv[1]);
    pid_ = pid;
    // No I/O deadline: a worker may compute for as long as its span takes,
    // and its death shows as EOF on the socketpair.
    channel_.emplace(util::unique_fd(sv[0]),
                     binary + " (pid " + std::to_string(pid) + ")",
                     tcp_options{.io_timeout_ms = -1});
}

process_transport::~process_transport() {
    channel_.reset(); // EOF: the worker's frame loop ends
    if (pid_ > 0) {
        int status = 0;
        while (::waitpid(static_cast<pid_t>(pid_), &status, 0) < 0 &&
               errno == EINTR) {
        }
    }
}

void process_transport::send_message(std::span<const std::uint8_t> payload) {
    channel_->send_message(payload);
}

std::vector<std::uint8_t> process_transport::recv_message() {
    return channel_->recv_message();
}

std::string default_worker_binary() {
    if (const char* env = std::getenv("QUORUM_WORKER");
        env != nullptr && env[0] != '\0') {
        return env;
    }
    // Next to the current executable: the build tree puts quorum_cli and
    // quorum_worker in the same directory.
    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (n > 0) {
        exe[n] = '\0';
        std::string path(exe);
        const std::size_t slash = path.rfind('/');
        if (slash != std::string::npos) {
            path.resize(slash + 1);
            path += "quorum_worker";
            if (::access(path.c_str(), X_OK) == 0) {
                return path;
            }
        }
    }
    // PATH search, done HERE in the parent: the forked child must not
    // run execlp's allocating lookup (fork from a multi-threaded process
    // permits only async-signal-safe calls before exec).
    if (const char* path_env = std::getenv("PATH"); path_env != nullptr) {
        const std::string paths(path_env);
        std::size_t begin = 0;
        while (begin <= paths.size()) {
            std::size_t end = paths.find(':', begin);
            if (end == std::string::npos) {
                end = paths.size();
            }
            std::string candidate = paths.substr(begin, end - begin);
            if (!candidate.empty()) {
                candidate += "/quorum_worker";
                if (::access(candidate.c_str(), X_OK) == 0) {
                    return candidate;
                }
            }
            begin = end + 1;
        }
    }
    // Nothing found: return the bare name — execv fails fast in the
    // child (_exit(127)) and the client reports a structured error.
    return "quorum_worker";
}

transport_factory process_transport_factory() {
    return [](std::size_t) -> std::unique_ptr<wire_transport> {
        return std::make_unique<process_transport>(default_worker_binary());
    };
}

} // namespace quorum::exec

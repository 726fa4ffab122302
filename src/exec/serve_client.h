// Client for the quorum_serve scoring daemon's line protocol.
//
// The protocol ("QSRV1", spec in docs/ARCHITECTURE.md) is deliberately
// textual — one header line plus CSV-ish feature rows in, one header line
// plus score lines out — so any language can drive the daemon with a
// socket and printf. Doubles travel as %.17g, which round-trips IEEE-754
// binary64 exactly; that is what lets the serve-path golden tests assert
// scores through the daemon are IEEE == to in-process scores.
//
//   client -> server:  "QSRV1 SCORE <rows> <cols>\n"
//                      <rows> lines, <cols> comma-separated features each
//   server -> client:  "QSRV1 OK <rows>\n" + <rows> score lines, or
//                      "QSRV1 ERR <message>\n"
//
// A connection is a session: requests can be issued back to back, and the
// server holds no per-request state beyond the reply in flight.
#ifndef QUORUM_EXEC_SERVE_CLIENT_H
#define QUORUM_EXEC_SERVE_CLIENT_H

#include <string>
#include <string_view>
#include <vector>

#include "util/net.h"

namespace quorum::exec {

/// Protocol tag opening every request and reply line.
inline constexpr std::string_view serve_protocol_tag = "QSRV1";

/// Renders a double as text that parses back to the identical bit
/// pattern (%.17g — shared with the golden-fixture format).
[[nodiscard]] std::string serve_format_double(double value);

/// Strict finite double parse: leading whitespace is skipped, as strtod
/// skips it, then util::parse_real reads the rest (whole token, no
/// trailing garbage; "nan", "inf" and overflowing numbers such as
/// "1e999" are rejected; a plain decimal takes its from_chars fast path,
/// with strtod's bits). Returns false instead of throwing — both
/// protocol ends parse untrusted text. Scores are finite by
/// construction, so only a broken peer trips this.
[[nodiscard]] bool serve_parse_double(std::string_view text, double& value);

class serve_client {
public:
    /// Connects to a running quorum_serve. Throws transport_error (via
    /// util::net_error) naming host:port on refusal.
    explicit serve_client(const util::endpoint& server,
                          int timeout_ms = 120000);

    /// Scores one batch of feature rows (all rows the same width).
    /// Returns one score per row, in row order. Server-side rejections
    /// ("QSRV1 ERR ...") throw util::contract_error carrying the
    /// server's message; a dead connection throws transport_error.
    [[nodiscard]] std::vector<double>
    score(const std::vector<std::vector<double>>& rows);

private:
    util::unique_fd fd_;
    std::string peer_;
    int timeout_ms_;
    util::line_reader reader_;
};

} // namespace quorum::exec

#endif // QUORUM_EXEC_SERVE_CLIENT_H

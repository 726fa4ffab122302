#include "exec/serve_client.h"

#include <cctype>
#include <cstdio>

#include "exec/wire.h"
#include "util/contracts.h"
#include "util/parse.h"

namespace quorum::exec {

std::string serve_format_double(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

bool serve_parse_double(std::string_view text, double& value) {
    std::size_t first = 0;
    while (first < text.size() &&
           std::isspace(static_cast<unsigned char>(text[first]))) {
        ++first;
    }
    return util::parse_real(text.substr(first), value);
}

serve_client::serve_client(const util::endpoint& server, int timeout_ms)
    : peer_(server.str()),
      timeout_ms_(timeout_ms),
      reader_(-1, timeout_ms, peer_) {
    try {
        fd_ = util::connect_tcp(server, timeout_ms_);
    } catch (const util::net_error& error) {
        throw transport_error(error.what());
    }
    reader_ = util::line_reader(fd_.get(), timeout_ms_, peer_);
}

std::vector<double>
serve_client::score(const std::vector<std::vector<double>>& rows) {
    QUORUM_EXPECTS_MSG(!rows.empty(),
                       "serve client: a request needs at least one row");
    const std::size_t cols = rows.front().size();
    QUORUM_EXPECTS_MSG(cols >= 1,
                       "serve client: rows need at least one feature");
    for (const std::vector<double>& row : rows) {
        QUORUM_EXPECTS_MSG(row.size() == cols,
                           "serve client: all rows must share one width");
    }
    std::string request = std::string(serve_protocol_tag) + " SCORE " +
                          std::to_string(rows.size()) + " " +
                          std::to_string(cols) + "\n";
    for (const std::vector<double>& row : rows) {
        for (std::size_t j = 0; j < cols; ++j) {
            if (j > 0) {
                request += ',';
            }
            request += serve_format_double(row[j]);
        }
        request += '\n';
    }
    try {
        util::send_all(fd_.get(), request.data(), request.size(),
                       timeout_ms_, peer_);
        std::string line;
        if (!reader_.read_line(line)) {
            throw transport_error(peer_ + ": server closed the connection");
        }
        const std::string tag(serve_protocol_tag);
        if (line.rfind(tag + " ERR ", 0) == 0) {
            throw util::contract_error(
                "quorum_serve at " + peer_ + " rejected the request: " +
                line.substr(tag.size() + 5));
        }
        const std::string ok_prefix = tag + " OK ";
        QUORUM_EXPECTS_MSG(line.rfind(ok_prefix, 0) == 0,
                           "quorum_serve at " + peer_ +
                               " sent a malformed reply: " + line);
        double count_value = 0.0;
        QUORUM_EXPECTS_MSG(
            serve_parse_double(line.substr(ok_prefix.size()),
                               count_value) &&
                count_value == static_cast<double>(rows.size()),
            "quorum_serve at " + peer_ +
                " replied with the wrong row count: " + line);
        std::vector<double> scores;
        scores.reserve(rows.size());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (!reader_.read_line(line)) {
                throw transport_error(peer_ +
                                      ": server closed mid-reply");
            }
            double score_value = 0.0;
            QUORUM_EXPECTS_MSG(serve_parse_double(line, score_value),
                               "quorum_serve at " + peer_ +
                                   " sent a malformed score line: " +
                                   line);
            scores.push_back(score_value);
        }
        return scores;
    } catch (const util::net_error& error) {
        throw transport_error(error.what());
    }
}

} // namespace quorum::exec

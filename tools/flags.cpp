#include "flags.h"

#include <algorithm>
#include <exception>
#include <iostream>
#include <sstream>

#include "exec/registry.h"
#include "exec/schedule.h"
#include "qml/angle_encoding.h"

namespace quorum::tools {

namespace {

/// Help text starts in this column and wraps before `line_width`.
constexpr std::size_t help_column = 24;
constexpr std::size_t line_width = 80;

std::vector<std::string> split_names(const std::string& names) {
    std::vector<std::string> out;
    std::istringstream in(names);
    for (std::string name; std::getline(in, name, '|');) {
        out.push_back(name);
    }
    return out;
}

} // namespace

flag_table::flag_table(std::string tool, std::string header,
                       std::string footer)
    : tool_(std::move(tool)), header_(std::move(header)),
      footer_(std::move(footer)) {
    choice("-h|--help", {}, "print this text and exit", {});
}

void flag_table::toggle(std::string names, std::string help, bool& target,
                        bool value) {
    choice(std::move(names), {}, std::move(help),
           [&target, value](const std::string&) {
               target = value;
               return true;
           });
}

void flag_table::text(std::string names, std::string placeholder,
                      std::string help, std::string& target) {
    choice(std::move(names), std::move(placeholder), std::move(help),
           [&target](const std::string& v) {
               target = v;
               return true;
           },
           target);
}

void flag_table::integer(std::string names, std::string placeholder,
                         std::string help, int& target) {
    choice(std::move(names), std::move(placeholder), std::move(help),
           [&target](const std::string& v) {
               return util::parse_int(v, target);
           },
           std::to_string(target));
}

void flag_table::real(std::string names, std::string placeholder,
                      std::string help, double& target,
                      core::open_range range) {
    std::ostringstream shown;
    shown << target;
    choice(std::move(names), std::move(placeholder), std::move(help),
           [&target, range](const std::string& v) {
               double value = 0.0;
               if (!util::parse_real(v, value) || !range.contains(value)) {
                   return false;
               }
               target = value;
               return true;
           },
           shown.str());
}

void flag_table::choice(std::string names, std::string placeholder,
                        std::string help, setter set, std::string shown) {
    rows_.push_back({split_names(names), std::move(placeholder),
                     std::move(help), std::move(set), std::move(shown)});
}

void flag_table::check(std::function<std::string()> rule) {
    checks_.push_back(std::move(rule));
}

std::optional<int> flag_table::parse(int argc, char** argv) const {
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto match =
            std::find_if(rows_.begin(), rows_.end(), [&arg](const row& r) {
                return std::find(r.names.begin(), r.names.end(), arg) !=
                       r.names.end();
            });
        if (match == rows_.end()) {
            return usage_error("unknown option " + arg);
        }
        if (!match->set) {
            print_usage(std::cout);
            return 0;
        }
        std::string value;
        if (!match->placeholder.empty()) {
            if (i + 1 == argc) {
                return usage_error("missing value for " + arg);
            }
            value = argv[++i];
        }
        bool accepted = false;
        try {
            accepted = match->set(value);
        } catch (const std::exception&) {
            // A choice parser's contract_error: a rejected value.
        }
        if (!accepted) {
            return usage_error("bad value '" + value + "' for " + arg);
        }
    }
    for (const auto& rule : checks_) {
        if (const std::string message = rule(); !message.empty()) {
            return usage_error(message);
        }
    }
    return std::nullopt;
}

void flag_table::print_usage(std::ostream& out) const {
    out << header_ << "\n";
    for (const row& r : rows_) {
        std::string left = "  " + r.names.front();
        for (std::size_t n = 1; n < r.names.size(); ++n) {
            left += ", " + r.names[n];
        }
        if (!r.placeholder.empty()) {
            left += " " + r.placeholder;
        }
        // The default is one word, so wrapping never splits it.
        std::vector<std::string> words;
        std::istringstream help(r.help);
        for (std::string word; help >> word;) {
            words.push_back(word);
        }
        if (!r.shown.empty()) {
            words.push_back("(default " + r.shown + ")");
        }
        out << left;
        std::size_t column = left.size();
        if (column + 2 > help_column) {
            out << "\n";
            column = 0;
        }
        std::string line;
        for (const std::string& word : words) {
            if (!line.empty() &&
                help_column + line.size() + 1 + word.size() > line_width) {
                out << std::string(help_column - column, ' ') << line << "\n";
                column = 0;
                line.clear();
            }
            line += (line.empty() ? "" : " ") + word;
        }
        out << std::string(help_column - column, ' ') << line << "\n";
    }
    if (!footer_.empty()) {
        out << "\n" << footer_ << "\n";
    }
}

int flag_table::usage_error(const std::string& message) const {
    std::cerr << tool_ << ": " << message << "\n";
    return 2;
}

void add_scoring_flags(flag_table& flags, core::quorum_config& config) {
    flags.count("--groups", "N", "ensemble groups", config.ensemble_groups,
                core::min_ensemble_groups);
    flags.count("--shots", "N",
                "SWAP-test shots per circuit (ignored in exact mode)",
                config.shots);
    flags.count("--qubits", "N",
                "data-register qubits: a group encodes 2^N - 1 features "
                "(amplitude) or N (angle)",
                config.n_qubits, core::min_qubits, core::max_qubits);
    flags.real("--rate", "R", "estimated anomaly rate, for bucket sizing",
               config.estimated_anomaly_rate, core::probability_range);
    flags.real("--bucket-prob", "P",
               "target probability that a bucket holds an anomaly",
               config.bucket_probability, core::probability_range);
    flags.check([&config]() -> std::string {
        if (config.mode == core::exec_mode::exact ||
            config.shots >= core::min_sampling_shots) {
            return {};
        }
        return "bad value '" + std::to_string(config.shots) +
               "' for --shots: " + core::exec_mode_name(config.mode) +
               " mode needs at least " +
               std::to_string(core::min_sampling_shots) + " shot";
    });
    flags.choice("--mode", "M", "exact | sampled | per_shot | noisy",
                 [&config](const std::string& v) {
                     return core::parse_exec_mode(v, config.mode);
                 },
                 core::exec_mode_name(config.mode));
    flags.choice("--encoding", "E",
                 "amplitude (the paper's) | angle (one RY per qubit)",
                 [&config](const std::string& v) {
                     return qml::parse_encoding(v, config.encoding);
                 },
                 std::string(qml::encoding_name(config.encoding)));
    flags.choice("--schedule", "S",
                 "span planning across remote workers: static (one "
                 "balanced span per worker) | dynamic[:grain] (workers "
                 "pull grain-sample spans); identical scores",
                 [&config](const std::string& v) {
                     (void)exec::parse_schedule_spec(v);
                     config.schedule = v;
                     return true;
                 },
                 config.schedule);
    flags.count("--seed", "S", "master seed", config.seed);
}

void add_threads_flag(flag_table& flags, core::quorum_config& config) {
    flags.count("--threads", "N",
                "ensemble threads, 0 = all cores: groups, then row ranges "
                "of each group (not on a worker fleet); identical scores "
                "for any value",
                config.threads);
}

void add_table_flags(flag_table& flags, table_options& table,
                     core::quorum_config& config) {
    flags.text("--input", "PATH",
               "CSV to score, one sample per row in arrival order "
               "(required unless --demo)",
               table.input);
    flags.toggle("--demo", "score a bundled synthetic dataset instead",
                 table.demo);
    flags.text("--out|--output", "PATH", "scores CSV", table.output);
    flags.integer("--label-column", "K",
                  "0/1 label column, withheld from the detector and used "
                  "only to evaluate; -1 = none",
                  table.label_column);
    flags.toggle("--no-header", "the input has no header row",
                 table.has_header, false);
    flags.count("--top", "K", "print the K strongest suspects", table.top);
    flags.text("--backend", "B",
               "execution engine: auto | NAME | remote[:NAME]", config.backend);
    flags.check([&config]() -> std::string {
        if (exec::is_backend_registered(config.resolved_backend())) {
            return {};
        }
        return "bad value '" + config.backend + "' for --backend: " +
               registered_backends_line();
    });
    flags.toggle("--no-fused",
                 "evaluate levels one batch at a time (identical scores)",
                 config.fused_levels, false);
}

std::string registered_backends_line() {
    std::string line = "registered backends:";
    for (const std::string& name : exec::backend_names()) {
        line += " " + name;
    }
    return line;
}

} // namespace quorum::tools

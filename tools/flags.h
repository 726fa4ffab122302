// Command-line flags of the Quorum tools: one table of rows per tool.
//
// A row holds a flag's names ('|'-separated aliases, canonical first),
// its value placeholder (none for a switch), its help text, its default
// as --help shows it, and a setter that parses the value strictly into a
// bound variable. One loop parses argv against the rows and one function
// prints the usage text from them, so each flag's grammar, help and
// default live in one place. A row shows the value its variable holds
// when the row is made, so a tool sets its defaults before its rows.
//
// Usage errors (an unknown flag, a missing value, a rejected value) print
// one line, "<tool>: <what>", on stderr and exit 2; --help prints the
// usage on stdout and exits 0.
#ifndef QUORUM_TOOLS_FLAGS_H
#define QUORUM_TOOLS_FLAGS_H

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/config.h"
#include "util/parse.h"

namespace quorum::tools {

class flag_table {
public:
    /// Parses a value into the bound variable. Returning false or
    /// throwing rejects the value and leaves the variable as it was.
    using setter = std::function<bool(const std::string&)>;

    /// `tool` names the program in diagnostics; `header` and `footer`
    /// frame the rows in the usage text. The -h|--help row comes first.
    /// Rows hold references to their bound variables, which must outlive
    /// the table.
    flag_table(std::string tool, std::string header, std::string footer = {});

    /// A switch: takes no value and sets `target` to `value`.
    void toggle(std::string names, std::string help, bool& target,
                bool value = true);
    void text(std::string names, std::string placeholder, std::string help,
              std::string& target);
    /// A non-negative integer that must fit T (util::parse_count) and lie
    /// in [minimum, maximum].
    template <typename T>
    void count(std::string names, std::string placeholder, std::string help,
               T& target, std::type_identity_t<T> minimum = 0,
               std::type_identity_t<T> maximum =
                   std::numeric_limits<T>::max()) {
        choice(std::move(names), std::move(placeholder), std::move(help),
               [&target, minimum, maximum](const std::string& v) {
                   T value{};
                   if (!util::parse_count(v, value) || value < minimum ||
                       value > maximum) {
                       return false;
                   }
                   target = value;
                   return true;
               },
               std::to_string(target));
    }
    void integer(std::string names, std::string placeholder,
                 std::string help, int& target);
    /// A finite real (util::parse_real) inside `range`.
    void real(std::string names, std::string placeholder, std::string help,
              double& target, core::open_range range = {});
    /// A value checked by an existing parser inside `set`; --help shows
    /// `shown` as the default unless it is empty. The other row kinds are
    /// choices with a fixed parser, and an empty `placeholder` makes a
    /// switch.
    void choice(std::string names, std::string placeholder, std::string help,
                setter set, std::string shown = {});

    /// A rule across rows that parse() applies once every flag parsed: a
    /// non-empty result is a usage error message.
    void check(std::function<std::string()> rule);

    /// Parses argv against the rows, then applies the checks. Returns the
    /// exit code when the tool must stop (0 after --help, 2 after a usage
    /// error), nullopt when it should run.
    [[nodiscard]] std::optional<int> parse(int argc, char** argv) const;

    void print_usage(std::ostream& out) const;

    /// Prints "<tool>: <message>" on stderr and returns 2, for the checks
    /// a tool makes across several flags after parse().
    int usage_error(const std::string& message) const;

private:
    struct row {
        std::vector<std::string> names;
        std::string placeholder; ///< empty: a switch
        std::string help;
        setter set; ///< empty only for -h|--help
        std::string shown;
    };

    std::string tool_;
    std::string header_;
    std::string footer_;
    std::vector<row> rows_;
    std::vector<std::function<std::string()>> checks_;
};

/// The nine rows every scoring tool maps onto quorum_config: --groups,
/// --shots, --qubits, --rate, --bucket-prob, --mode, --encoding,
/// --schedule and --seed. Each range quorum_config::validate() enforces
/// is checked while parsing; --shots against --mode once all flags parsed.
void add_scoring_flags(flag_table& flags, core::quorum_config& config);

/// --threads, which quorum_cli and quorum_serve share.
void add_threads_flag(flag_table& flags, core::quorum_config& config);

/// What quorum_cli and quorum_stream read besides the detector config.
struct table_options {
    std::string input;
    std::string output;
    int label_column = -1;
    bool has_header = true;
    bool demo = false;
    std::size_t top = 10;
};

/// The rows quorum_cli and quorum_stream share: --input, --out|--output,
/// --label-column, --no-header, --demo, --top, --backend and --no-fused.
/// Once every flag parsed, --backend (as --mode resolves "auto") must
/// name registered backends.
void add_table_flags(flag_table& flags, table_options& table,
                     core::quorum_config& config);

/// "registered backends: ..." (one line, no newline) for the usage
/// footer and the --backend error of the tools that take a backend spec.
[[nodiscard]] std::string registered_backends_line();

} // namespace quorum::tools

#endif // QUORUM_TOOLS_FLAGS_H

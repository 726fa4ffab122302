#include "exec/registry.h"

#include <map>
#include <mutex>
#include <utility>

#include "exec/density_backend.h"
#include "exec/fleet.h"
#include "exec/process_transport.h"
#include "exec/statevector_backend.h"
#include "util/contracts.h"

namespace quorum::exec {

namespace {

struct registry_state {
    std::mutex mutex;
    std::map<std::string, backend_factory, std::less<>> factories;
};

registry_state& registry() {
    static registry_state state;
    return state;
}

/// remote:<inner>: a fleet executor over a private fleet of spawned
/// quorum_worker processes (none start before its first batch).
std::unique_ptr<executor> make_remote(const engine_config& config,
                                      const std::string& inner) {
    return std::make_unique<fleet_executor>(config, inner,
                                            process_transport_factory());
}

/// The built-ins register lazily on first registry access (explicitly, not
/// via static initialisers, which a static-library link could drop).
void ensure_builtins() {
    static const bool registered = [] {
        register_backend("statevector", [](const engine_config& config) {
            return std::unique_ptr<executor>(
                new statevector_backend(config));
        });
        register_backend("density", [](const engine_config& config) {
            return std::unique_ptr<executor>(new density_backend(config));
        });
        register_backend("remote", [](const engine_config& config) {
            return make_remote(config, "statevector");
        });
        return true;
    }();
    (void)registered;
}

} // namespace

bool register_backend(std::string name, backend_factory factory) {
    QUORUM_EXPECTS_MSG(!name.empty(), "backend name must be non-empty");
    QUORUM_EXPECTS_MSG(name.find(':') == std::string::npos,
                       "backend names must be plain (':' is reserved for "
                       "composite specs like remote:statevector)");
    QUORUM_EXPECTS_MSG(static_cast<bool>(factory),
                       "backend factory must be callable");
    registry_state& state = registry();
    const std::lock_guard<std::mutex> lock(state.mutex);
    return state.factories.insert_or_assign(std::move(name),
                                            std::move(factory))
        .second;
}

bool is_plain_engine_name(std::string_view name) noexcept {
    return !name.empty() && name.find(':') == std::string_view::npos &&
           name != "remote" && name != "fleet";
}

backend_spec parse_backend_spec(std::string_view spec) {
    backend_spec parsed;
    const std::size_t colon = spec.find(':');
    if (colon == std::string_view::npos) {
        parsed.name = std::string(spec);
    } else {
        parsed.name = std::string(spec.substr(0, colon));
        parsed.inner = std::string(spec.substr(colon + 1));
    }
    QUORUM_EXPECTS_MSG(!parsed.name.empty(),
                       "backend spec must start with a backend name");
    if (colon != std::string_view::npos) {
        QUORUM_EXPECTS_MSG(parsed.name == "remote",
                           "only the 'remote' backend takes an ':inner' "
                           "spec (got '" + std::string(spec) + "')");
        QUORUM_EXPECTS_MSG(!parsed.inner.empty(),
                           "'" + parsed.name + ":' needs an inner backend "
                           "name (e.g. " + parsed.name + ":statevector)");
        QUORUM_EXPECTS_MSG(is_plain_engine_name(parsed.inner),
                           "the " + parsed.name + " backend cannot nest "
                           "(inner must be a plain backend name)");
    }
    return parsed;
}

bool is_backend_registered(std::string_view spec) {
    ensure_builtins();
    backend_spec parsed;
    try {
        parsed = parse_backend_spec(spec);
    } catch (const util::contract_error&) {
        return false;
    }
    registry_state& state = registry();
    const std::lock_guard<std::mutex> lock(state.mutex);
    if (state.factories.find(parsed.name) == state.factories.end()) {
        return false;
    }
    return parsed.inner.empty() ||
           state.factories.find(parsed.inner) != state.factories.end();
}

std::vector<std::string> backend_names() {
    ensure_builtins();
    registry_state& state = registry();
    const std::lock_guard<std::mutex> lock(state.mutex);
    std::vector<std::string> names;
    names.reserve(state.factories.size());
    for (const auto& [name, factory] : state.factories) {
        names.push_back(name);
    }
    return names;
}

std::unique_ptr<executor> make_executor(std::string_view spec,
                                        const engine_config& config) {
    ensure_builtins();
    const backend_spec parsed = parse_backend_spec(spec);
    if (!parsed.inner.empty()) {
        // remote:<inner>: the fleet resolves the inner name through this
        // registry, so an unknown inner throws the same known-names error
        // as an unknown base name.
        return make_remote(config, parsed.inner);
    }
    backend_factory factory;
    {
        registry_state& state = registry();
        const std::lock_guard<std::mutex> lock(state.mutex);
        const auto it = state.factories.find(parsed.name);
        if (it == state.factories.end()) {
            std::string known;
            for (const auto& [known_name, known_factory] : state.factories) {
                known += known.empty() ? known_name : ", " + known_name;
            }
            throw util::contract_error("unknown execution backend '" +
                                       parsed.name + "' (known: " + known +
                                       ")");
        }
        factory = it->second;
    }
    return factory(config);
}

} // namespace quorum::exec

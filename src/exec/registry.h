// Backend registry/factory: execution engines are looked up by name so
// new backends (GPU, remote, ...) plug in without touching core.
// The built-in "statevector" and "density" backends register themselves on
// first use; external code may add more via register_backend.
#ifndef QUORUM_EXEC_REGISTRY_H
#define QUORUM_EXEC_REGISTRY_H

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/executor.h"

namespace quorum::exec {

/// Creates a backend instance for the given engine parameters.
using backend_factory =
    std::function<std::unique_ptr<executor>(const engine_config&)>;

/// Registers (or replaces) a factory under `name` (a plain name — no ':').
/// Returns true when the name was new, false when an existing registration
/// was replaced. Thread-safe.
bool register_backend(std::string name, backend_factory factory);

/// A parsed backend spec. Specs are either a plain registered name
/// ("statevector") or a composite "remote:<inner>" pair, where <inner> is
/// any plain registered name the remote backend's worker processes run.
struct backend_spec {
    std::string name;  ///< base backend name
    std::string inner; ///< inner backend of a composite spec; else empty
};

/// Splits a spec string into (name, inner) and validates its shape:
/// non-empty parts, at most one ':', and only "remote" may carry an
/// inner. Throws util::contract_error on malformed specs. Does
/// NOT check registration — make_executor does.
[[nodiscard]] backend_spec parse_backend_spec(std::string_view spec);

/// True when `name` can name the engine a worker runs: non-empty,
/// without ':', and neither of the wrappers "remote" and "fleet"
/// (quorum_serve's shared worker fleet), which distribute batches
/// themselves and so cannot nest. Every place that takes an inner engine
/// name checks it with this: composite specs, the worker fleet, a
/// worker's hello and quorum_serve --backend.
[[nodiscard]] bool is_plain_engine_name(std::string_view name) noexcept;

/// True when `spec` is well-formed and every name in it is registered.
[[nodiscard]] bool is_backend_registered(std::string_view spec);

/// All registered backend names, sorted.
[[nodiscard]] std::vector<std::string> backend_names();

/// Instantiates the backend a spec describes ("remote:<inner>" runs the
/// inner backend in the multi-process remote engine; bare "remote" wraps
/// "statevector"). Throws util::contract_error (listing the known names)
/// when a name is not registered or the spec is malformed. Note:
/// "remote:<inner>" is always served by the built-in remote engine —
/// re-registering a factory under "remote" affects only the plain name.
[[nodiscard]] std::unique_ptr<executor>
make_executor(std::string_view spec, const engine_config& config);

} // namespace quorum::exec

#endif // QUORUM_EXEC_REGISTRY_H

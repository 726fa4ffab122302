#include <algorithm>

#include <gtest/gtest.h>

#include "exec/fleet.h"
#include "exec/registry.h"
#include "util/contracts.h"

namespace {

using namespace quorum;

TEST(ExecRegistry, BuiltinsAreRegistered) {
    const std::vector<std::string> names = exec::backend_names();
    EXPECT_NE(std::find(names.begin(), names.end(), "statevector"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "density"), names.end());
    EXPECT_TRUE(exec::is_backend_registered("statevector"));
    EXPECT_TRUE(exec::is_backend_registered("density"));
    EXPECT_TRUE(exec::is_backend_registered("remote"));
    EXPECT_TRUE(exec::is_backend_registered("remote:density"));
    EXPECT_FALSE(exec::is_backend_registered("warp-drive"));
    EXPECT_FALSE(exec::is_backend_registered("remote:warp-drive"));
}

TEST(ExecRegistry, MakeExecutorInstantiatesByName) {
    const std::unique_ptr<exec::executor> engine =
        exec::make_executor("statevector", exec::engine_config{});
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->name(), "statevector");
}

TEST(ExecRegistry, UnknownBackendThrowsWithKnownNames) {
    try {
        (void)exec::make_executor("warp-drive", exec::engine_config{});
        FAIL() << "expected contract_error";
    } catch (const util::contract_error& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("warp-drive"), std::string::npos);
        EXPECT_NE(what.find("statevector"), std::string::npos);
    }
}

TEST(ExecRegistry, EveryInnerEngineNameSiteRejectsWrappersAndComposites) {
    // One predicate decides what a worker may run; the worker hello and
    // quorum_serve --backend are checked in their own suites.
    EXPECT_TRUE(exec::is_plain_engine_name("statevector"));
    EXPECT_TRUE(exec::is_plain_engine_name("density"));
    for (const std::string name : {"remote", "fleet", "a:b", ""}) {
        EXPECT_FALSE(exec::is_plain_engine_name(name)) << name;
        EXPECT_THROW((void)exec::parse_backend_spec("remote:" + name),
                     util::contract_error)
            << name;
        exec::fleet_config fleet;
        fleet.inner = name;
        EXPECT_THROW(exec::worker_fleet{fleet}, util::contract_error)
            << name;
    }
}

// --- the retired sharded:<inner> composite ----------------------------------
// Groups and row ranges share --threads in core, so no built-in splits an
// executor call a second time in process: every sharded spelling is now
// outside the spec grammar and the registry.

TEST(ShardedBackend, SpecParsingValidatesShape) {
    // The spec grammar: a name, or "remote:" and one plain name.
    EXPECT_THROW((void)exec::parse_backend_spec(""), util::contract_error);
    EXPECT_THROW((void)exec::parse_backend_spec(":statevector"),
                 util::contract_error);
    EXPECT_THROW((void)exec::parse_backend_spec("density:foo"),
                 util::contract_error);
    EXPECT_THROW((void)exec::parse_backend_spec("remote:remote:density"),
                 util::contract_error);
    for (const char* spec : {"sharded:", "sharded:statevector",
                             "sharded:density", "sharded:sharded",
                             "sharded:sharded:density"}) {
        EXPECT_THROW((void)exec::parse_backend_spec(spec),
                     util::contract_error)
            << spec;
    }

    const exec::backend_spec plain = exec::parse_backend_spec("density");
    EXPECT_EQ(plain.name, "density");
    EXPECT_TRUE(plain.inner.empty());
    const exec::backend_spec composite =
        exec::parse_backend_spec("remote:density");
    EXPECT_EQ(composite.name, "remote");
    EXPECT_EQ(composite.inner, "density");
}

TEST(ShardedBackend, RegistryResolvesShardedSpecs) {
    const std::vector<std::string> names = exec::backend_names();
    EXPECT_EQ(std::find(names.begin(), names.end(), "sharded"), names.end());
    for (const char* spec :
         {"sharded", "sharded:statevector", "sharded:density", "sharded:auto",
          "sharded:bogus", "sharded:sharded"}) {
        EXPECT_FALSE(exec::is_backend_registered(spec)) << spec;
        EXPECT_THROW((void)exec::make_executor(spec, exec::engine_config{}),
                     util::contract_error)
            << spec;
    }
}

/// A trivial backend: reports a constant. Registering it must make it
/// constructible by name — the plug-in seam future backends use.
class constant_backend final : public exec::executor {
public:
    [[nodiscard]] std::string_view name() const noexcept override {
        return "constant";
    }
    [[nodiscard]] bool
    supports(exec::readout_kind) const noexcept override {
        return true;
    }
    [[nodiscard]] double run(const qsim::circuit&, int,
                             quorum::util::rng*) const override {
        return 0.25;
    }
    void run_batch(const exec::program&,
                   std::span<const exec::sample> samples,
                   std::span<double> out) const override {
        for (std::size_t i = 0; i < samples.size(); ++i) {
            out[i] = 0.25;
        }
    }
};

TEST(ExecRegistry, CustomBackendsPlugIn) {
    const bool was_new = exec::register_backend(
        "constant", [](const exec::engine_config&) {
            return std::unique_ptr<exec::executor>(new constant_backend());
        });
    EXPECT_TRUE(was_new || exec::is_backend_registered("constant"));
    const std::unique_ptr<exec::executor> engine =
        exec::make_executor("constant", exec::engine_config{});
    EXPECT_EQ(engine->name(), "constant");
    EXPECT_DOUBLE_EQ(engine->run(qsim::circuit(1), 0, nullptr), 0.25);
}

} // namespace

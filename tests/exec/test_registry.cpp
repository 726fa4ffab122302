#include <algorithm>

#include <gtest/gtest.h>

#include "exec/fleet.h"
#include "exec/registry.h"
#include "exec/sharded_backend.h"
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
    EXPECT_FALSE(exec::is_backend_registered("warp-drive"));
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
    // One predicate decides what a wrapper may run its lanes on; the worker
    // hello and quorum_serve --backend are checked in their own suites.
    EXPECT_TRUE(exec::is_plain_engine_name("statevector"));
    EXPECT_TRUE(exec::is_plain_engine_name("density"));
    for (const std::string name : {"sharded", "remote", "fleet", "a:b", ""}) {
        EXPECT_FALSE(exec::is_plain_engine_name(name)) << name;
        for (const std::string wrapper : {"sharded:", "remote:"}) {
            EXPECT_THROW((void)exec::parse_backend_spec(wrapper + name),
                         util::contract_error)
                << wrapper << name;
        }
        EXPECT_THROW(exec::sharded_backend(exec::engine_config{}, name),
                     util::contract_error)
            << name;
        exec::fleet_config fleet;
        fleet.inner = name;
        EXPECT_THROW(exec::worker_fleet{fleet}, util::contract_error)
            << name;
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

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "qml/amplitude_encoding.h"
#include "qml/ansatz.h"
#include "qml/autoencoder.h"
#include "qsim/qasm.h"
#include "qsim/transpile.h"
#include "util/rng.h"

namespace {

using namespace quorum::qsim;

/// The committed text of tests/qsim/fixtures/<name>.
std::string fixture(const std::string& name) {
    std::ifstream in(std::string(QUORUM_TEST_FIXTURE_DIR) + "/" + name);
    EXPECT_TRUE(in.good()) << "missing fixture " << name;
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

TEST(Qasm, HeaderAndRegisters) {
    circuit c(3, 1);
    c.h(0).measure(0, 0);
    const std::string qasm = to_qasm(c);
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("include \"qelib1.inc\";"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[3];"), std::string::npos);
    EXPECT_NE(qasm.find("creg c[1];"), std::string::npos);
}

TEST(Qasm, NoClassicalRegisterWhenUnused) {
    circuit c(2);
    c.x(0);
    const std::string qasm = to_qasm(c);
    EXPECT_EQ(qasm.find("creg"), std::string::npos);
}

TEST(Qasm, GateStatements) {
    circuit c(3, 1);
    c.h(0).cx(0, 1).rz(0.5, 2).cswap(0, 1, 2).reset(1).measure(2, 0)
        .barrier();
    const std::string qasm = to_qasm(c);
    EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
    EXPECT_NE(qasm.find("cx q[0],q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("rz(0.5) q[2];"), std::string::npos);
    EXPECT_NE(qasm.find("cswap q[0],q[1],q[2];"), std::string::npos);
    EXPECT_NE(qasm.find("reset q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("measure q[2] -> c[0];"), std::string::npos);
    EXPECT_NE(qasm.find("barrier q;"), std::string::npos);
}

TEST(Qasm, AnglesRoundTripPrecision) {
    circuit c(1);
    const double theta = 1.2345678901234567;
    c.rx(theta, 0);
    const std::string qasm = to_qasm(c);
    // 17 significant digits preserve the double exactly.
    EXPECT_NE(qasm.find("1.2345678901234567"), std::string::npos);
}

TEST(Qasm, InitializeIsSynthesised) {
    circuit c(2);
    const qubit_t reg[] = {0, 1};
    const std::vector<double> amps{0.5, 0.5, 0.5, 0.5};
    c.initialize(reg, std::span<const double>(amps));
    const std::string qasm = to_qasm(c);
    // No raw initialize; RY tree instead.
    EXPECT_EQ(qasm.find("initialize"), std::string::npos);
    EXPECT_NE(qasm.find("ry("), std::string::npos);
}

TEST(Qasm, FullQuorumCircuitExports) {
    quorum::util::rng gen(3);
    const auto params = quorum::qml::random_ansatz_params(3, 2, gen);
    std::vector<double> features(7, 0.2);
    const auto amps = quorum::qml::to_amplitudes(features, 3);
    const circuit c = quorum::qml::build_autoencoder_circuit(amps, params, 1);
    const std::string qasm = to_qasm(c);
    EXPECT_NE(qasm.find("qreg q[7];"), std::string::npos);
    EXPECT_NE(qasm.find("cswap"), std::string::npos);
    EXPECT_NE(qasm.find("reset"), std::string::npos);
    EXPECT_NE(qasm.find("measure q[6] -> c[0];"), std::string::npos);
    // Should be a substantial program.
    EXPECT_GT(qasm.size(), 500u);
    EXPECT_EQ(qasm, fixture("autoencoder_n3.qasm"));
}

TEST(Qasm, TranspiledCircuitUsesBasisGatesOnly) {
    circuit c(2, 1);
    c.h(0).cz(0, 1).measure(1, 0);
    const std::string qasm = to_qasm(transpile_for_hardware(c));
    EXPECT_EQ(qasm.find("h q"), std::string::npos);
    EXPECT_EQ(qasm.find("cz"), std::string::npos);
    EXPECT_NE(qasm.find("sx q"), std::string::npos);
    EXPECT_NE(qasm.find("cx q"), std::string::npos);
}

TEST(Qasm, StreamOverloadMatchesString) {
    circuit c(1);
    c.h(0);
    std::ostringstream out;
    write_qasm(out, c);
    EXPECT_EQ(out.str(), to_qasm(c));
}


// The QasmParse fixtures are to_qasm text that round-tripped through the
// OpenQASM parser this library used to ship: each random circuit came
// back with the same unitary up to phase (1e-9), the reset/measure and
// autoencoder circuits with the same measured probability (1e-12). A
// byte comparison keeps what those round trips pinned about the writer.
TEST(QasmParse, RoundTripPreservesSemantics) {
    quorum::util::rng gen(7);
    for (int trial = 0; trial < 8; ++trial) {
        circuit original(3);
        for (int g = 0; g < 10; ++g) {
            const auto q = static_cast<qubit_t>(gen.uniform_index(3));
            const auto q2 =
                static_cast<qubit_t>((q + 1 + gen.uniform_index(2)) % 3);
            switch (gen.uniform_index(5)) {
            case 0:
                original.rx(gen.angle(), q);
                break;
            case 1:
                original.u3(gen.angle(), gen.angle(), gen.angle(), q);
                break;
            case 2:
                original.cx(q, q2);
                break;
            case 3:
                original.h(q);
                break;
            default:
                original.t(q);
                break;
            }
        }
        EXPECT_EQ(to_qasm(original), fixture("random_seed7_" +
                                             std::to_string(trial) + ".qasm"))
            << "trial " << trial;
    }
}

TEST(QasmParse, RoundTripWithResetAndMeasure) {
    circuit original(2, 1);
    original.h(0).cx(0, 1).reset(0).ry(0.7, 0).measure(1, 0);
    EXPECT_EQ(to_qasm(original), fixture("reset_measure.qasm"));
}

} // namespace

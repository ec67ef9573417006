// Deterministic structural circuit generators.
//
// The paper evaluates on ISCAS-89 / ITC-99 / MCNC circuits.  Those netlist
// files are not redistributable here, so each benchmark is synthesized from
// a structural *kernel* matching its function class (array multiplier, PLD
// AND-OR planes, FSM next-state logic, majority voters, cipher rounds,
// datapaths, bus decoders) and then grown with class-flavoured random logic
// to the exact gate count the paper's Fig. 5 header row reports.  All
// generators are deterministic in (parameters, seed).
//
// Every generated circuit is validated (acyclic, correct arities) and fully
// observable: grow-phase gates are XOR-reduced into an extra output, so the
// logic simulator's output fingerprint witnesses every gate.
#pragma once

#include <cstdint>
#include <string>

#include "netlist/netlist.hpp"
#include "util/rng.hpp"

namespace diac::gen {

// Mix of gate kinds used when growing a circuit; weights need not sum to 1.
struct GateMix {
  double nand_w = 4, nor_w = 2, and_w = 2, or_w = 2, xor_w = 1, xnor_w = 1,
         not_w = 1, mux_w = 0.5, dff_w = 0.5;
};

// Class-flavoured mixes.
GateMix mix_generic();
GateMix mix_arithmetic();  // XOR/AND heavy (adders, multipliers)
GateMix mix_control();     // NAND/NOR/MUX heavy, more DFFs
GateMix mix_cipher();      // XOR dominated
GateMix mix_datapath();    // MUX heavy

// Grows `nl` with random logic until `nl.logic_gate_count() == target`,
// then XOR-reduces all dangling signals into one extra OUTPUT.  Throws
// std::invalid_argument if the netlist already exceeds the target (the
// closing XOR tree is budgeted in).  Seals the grown netlist; a no-op
// when it already has exactly `target` logic gates and nothing dangling.
void grow_to(Netlist& nl, std::size_t target, SplitMix64& rng,
             const GateMix& mix = mix_generic());

// --- kernels ----------------------------------------------------------------
// Each returns a small sealed netlist; pass to grow_to for exact sizing.

// Layered random logic (class "Logic").
Netlist random_logic(const std::string& name, int inputs, int outputs,
                     std::size_t target, std::uint64_t seed);

// Unsigned array multiplier, bits x bits (classes "4-bit Multiplier",
// "Fractional Multiplier").  Functionally a real multiplier.
Netlist array_multiplier(const std::string& name, int bits);

// Programmable-logic-device style two-level AND/OR planes (class "PLD").
Netlist pld(const std::string& name, int inputs, int product_terms,
            int outputs, std::uint64_t seed);

// Moore FSM: state register + random next-state/output logic (classes
// "TLC", "BCD FSM", "Guess a sequence", "I/F to sensor").
Netlist fsm_circuit(const std::string& name, int state_bits, int input_bits,
                    int output_bits, std::uint64_t seed);

// Majority voter over `voters` inputs, tree-structured (class "Voting
// System").  voters must be odd and >= 3.
Netlist majority_voter(const std::string& name, int voters);

// Serial-to-serial converter: shift-in register, recode logic, shift-out
// register (class "S-to-S Converter").
Netlist serial_converter(const std::string& name, int width,
                         std::uint64_t seed);

// Feistel-flavoured XOR cipher rounds over a `width`-bit block (classes
// "Key Encryption", "Encryption Circuit", "Scramble string").
Netlist xor_cipher(const std::string& name, int width, int rounds,
                   std::uint64_t seed);

// Min/max comparator tree over `count` words of `width` bits (class
// "Elaborate CM" — ITC-99 b04 computes min and max).
Netlist comparator_tree(const std::string& name, int width, int count);

// Ripple-carry-ALU datapath with operand registers and result mux (class
// "Viper processor").
Netlist alu_datapath(const std::string& name, int width, std::uint64_t seed);

// Address decoder + grant logic + data mux for `masters` bus masters
// (classes "Bus Interface", "Bus Controller").
Netlist bus_controller(const std::string& name, int masters, int width,
                       std::uint64_t seed);

// --- structural helpers (exposed for reuse/tests) ---------------------------

// XOR-reduces `signals` into a single net; returns the root (or the single
// element when signals.size() == 1).  signals must not be empty.
GateId xor_reduce(Netlist& nl, std::vector<GateId> signals);

// Full adder; returns {sum, carry}.
std::pair<GateId, GateId> full_adder(Netlist& nl, GateId a, GateId b, GateId cin);

}  // namespace diac::gen

// Code generator + validation (SIII.A step 7).
//
// Emits synthesizable structural Verilog for the NV-enhanced tree: the
// original gate network, annotated with task-boundary comments, plus
// `diac_nvreg` shadow registers at every NVM commit point.  The validation
// pass is our stand-in for "submitting to the commercial tool": it checks
// per-task timing against a clock period and per-task energy against the
// power budget, and reports every violation.
#pragma once

#include <string>
#include <vector>

#include "diac/design.hpp"

namespace diac {

// Emits Verilog for the design's netlist + NVM commit points: module
// <netlist name>, wire or reg "w_<gate>" and shadow register instances
// "nv_<task label>_<k>", each made an identifier by
// `append_verilog_identifier` (netlist/verilog_format.hpp).
std::string generate_verilog(const IntermittentDesign& design);

// --- validation ---------------------------------------------------------

struct Violation {
  enum class Kind { kTiming, kPowerBudget } kind;
  TaskId task = kNullTask;
  std::string message;
};

struct ValidationReport {
  std::vector<Violation> violations;
  bool ok() const { return violations.empty(); }
};

// Checks every task node: CDP <= clock_period (timing) and scaled energy
// <= energy_budget (power budget / atomicity: an atomic operation must fit
// in the storage headroom).
ValidationReport validate_design(const IntermittentDesign& design,
                                 double clock_period, double energy_budget);

}  // namespace diac

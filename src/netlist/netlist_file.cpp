#include "netlist/netlist_file.hpp"

#include <algorithm>
#include <string_view>

#include "netlist/bench_format.hpp"
#include "netlist/blif_format.hpp"
#include "netlist/transforms.hpp"
#include "netlist/verilog_format.hpp"
#include "obs/obs.hpp"
#include "util/lexer.hpp"

namespace diac {

namespace {

bool has_extension(std::string_view path, std::string_view ext) {
  return path.size() > ext.size() && path.ends_with(ext);
}

}  // namespace

std::optional<Netlist> read_netlist_file(const std::string& path) {
  if (has_extension(path, ".bench")) {
    DIAC_TRACE_SPAN("netlist.parse", "netlist");
    std::string name = path.substr(path.find_last_of('/') + 1);
    name.resize(std::min(name.size(), name.find_last_of('.')));
    return cleanup(parse_bench(read_text_file(path, "bench"), name));
  }
  if (has_extension(path, ".blif")) {
    DIAC_TRACE_SPAN("netlist.parse", "netlist");
    return cleanup(parse_blif(read_text_file(path, "blif")));
  }
  if (has_extension(path, ".v")) {
    DIAC_TRACE_SPAN("netlist.parse", "netlist");
    Netlist nl =
        parse_structural_verilog(read_text_file(path, "verilog")).netlist;
    if (nl.name() == "top" || nl.name().empty()) nl.set_name(path);
    return nl;
  }
  return std::nullopt;
}

}  // namespace diac

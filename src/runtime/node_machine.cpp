#include "runtime/node_machine.hpp"

namespace diac {

const char* to_string(SimEvent::Kind kind) {
  switch (kind) {
    case SimEvent::Kind::kBackup: return "Backup";
    case SimEvent::Kind::kRestore: return "Restore";
    case SimEvent::Kind::kSafeZoneSave: return "SafeZoneSave";
    case SimEvent::Kind::kShutdown: return "Shutdown";
    case SimEvent::Kind::kInstanceDone: return "InstanceDone";
    case SimEvent::Kind::kPowerInterrupt: return "PowerInterrupt";
  }
  return "?";
}

}  // namespace diac

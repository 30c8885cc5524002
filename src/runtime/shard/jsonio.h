// The shard layer's JSON vocabulary is core's (core/jsonio.h): the codec
// moved down so serializable documents — ScenarioConfig, GridSpec,
// SweepRequest — exist below the runtime layer. These imports keep the
// shard subsystem's own documents (records, partials) spelled the way
// they always were.
#pragma once

#include "core/jsonio.h"

namespace xr::runtime::shard {

using core::Json;
using core::format_double;
using core::format_hex64;
using core::parse_double;
using core::parse_hex64;
using core::read_text_file;

}  // namespace xr::runtime::shard

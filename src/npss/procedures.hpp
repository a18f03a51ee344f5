// The remote computation procedures of the four adapted TESS modules
// (§3.3): shaft (setshaft + shaft), duct, combustor, and nozzle. Each is a
// Schooner program image whose UTS export specification matches the paper
// where the paper shows it (setshaft/shaft are reproduced verbatim) and
// follows the same style for the other three. Installing an image on a
// virtual machine is the analogue of copying npss-shaft.f to the remote
// host and building it there.
#pragma once

#include <string>

#include "rpc/host.hpp"
#include "sim/cluster.hpp"
#include "tess/hifi_duct.hpp"
#include "tess/remote_seam.hpp"

namespace npss::glue {

/// A station [W, Tt, Pt, FAR] or a shaft's energy terms as the specs'
/// array[4] of double: how every adapted procedure's array argument and
/// result crosses the wire, and the flow modules' energy port value.
uts::Value station_value(const tess::StationArray& a);
tess::StationArray station_from(const uts::Value& v);

/// Export/import specification texts.
extern const char* kShaftSpec;      ///< setshaft + shaft (paper §3.3)
extern const char* kDuctSpec;
extern const char* kCombustorSpec;
extern const char* kNozzleSpec;

/// Matching import declarations (the "nearly identical" counterpart files).
std::string shaft_import_spec();
std::string duct_import_spec();
std::string combustor_import_spec();
std::string nozzle_import_spec();

/// Program images. `compute_us` is the simulated numeric cost per call at
/// reference-CPU speed (scaled down on faster machines like the Cray).
sim::ProgramImage shaft_image(double compute_us = 120.0);
sim::ProgramImage duct_image(double compute_us = 60.0);
sim::ProgramImage combustor_image(double compute_us = 250.0);
sim::ProgramImage nozzle_image(double compute_us = 150.0);

/// Higher-fidelity duct (§2.3 zooming): exports the *same* `duct`
/// procedure and signature as the level-1 image, but computes the loss
/// with the parallel 2-D relaxation solver (tess/hifi_duct.hpp) — so
/// zooming a duct is nothing but pointing its pathname widget at this
/// image. The level-1 dp argument is ignored by the level-2 physics.
sim::ProgramImage hifi_duct_image(tess::HifiDuctConfig config = {},
                                  double compute_us = 4000.0);

/// Conventional installation paths (what the §3.3 pathname widget holds).
constexpr const char* kShaftPath = "/npss/bin/npss-shaft";
constexpr const char* kDuctPath = "/npss/bin/npss-duct";
constexpr const char* kHifiDuctPath = "/npss/bin/npss-duct-hifi";
constexpr const char* kCombustorPath = "/npss/bin/npss-combustor";
constexpr const char* kNozzlePath = "/npss/bin/npss-nozzle";

/// Install all four images on `machine` under the conventional paths.
void install_tess_procedures(sim::Cluster& cluster,
                             const std::string& machine);

/// Install on every machine of the cluster.
void install_tess_procedures_everywhere(sim::Cluster& cluster);

}  // namespace npss::glue

#include "npss/procedures.hpp"

#include "tess/components.hpp"
#include "tess/remote_seam.hpp"
#include "uts/spec.hpp"

namespace npss::glue {

using rpc::ProcCall;
using tess::StationArray;
using uts::Value;

// The shaft export specification, verbatim from §3.3 of the paper.
const char* kShaftSpec = R"(
export setshaft prog(
    "ecom" val array[4] of float,
    "incom" val integer,
    "etur" val array[4] of float,
    "intur" val integer,
    "ecorr" res float)

export shaft prog(
    "ecom" val array[4] of float,
    "incom" val integer,
    "etur" val array[4] of float,
    "intur" val integer,
    "ecorr" val float,
    "xspool" val float,
    "xmyi" val float,
    "dxspl" res float)
)";

const char* kDuctSpec = R"(
export duct prog(
    "stin" val array[4] of float,
    "dp" val float,
    "stout" res array[4] of float)
)";

const char* kCombustorSpec = R"(
export combustor prog(
    "stin" val array[4] of float,
    "wfuel" val float,
    "effb" val float,
    "dp" val float,
    "stout" res array[4] of float)
)";

const char* kNozzleSpec = R"(
export nozzle prog(
    "stin" val array[4] of float,
    "area" val float,
    "pamb" val float,
    "result" res array[4] of float)
)";

namespace {

std::string to_import(const char* export_text) {
  return uts::export_to_import_text(uts::parse_spec(export_text));
}

}  // namespace

Value station_value(const StationArray& a) {
  return Value::real_array({a[0], a[1], a[2], a[3]});
}

StationArray station_from(const Value& v) {
  std::vector<double> r = v.as_real_vector();
  return {r[0], r[1], r[2], r[3]};
}

std::string shaft_import_spec() { return to_import(kShaftSpec); }
std::string duct_import_spec() { return to_import(kDuctSpec); }
std::string combustor_import_spec() { return to_import(kCombustorSpec); }
std::string nozzle_import_spec() { return to_import(kNozzleSpec); }

sim::ProgramImage shaft_image(double compute_us) {
  rpc::ProcedureImageOptions opt;
  opt.language = rpc::SourceLanguage::kFortran;
  opt.compute_us_per_call = compute_us;
  return rpc::make_procedure_image(
      kShaftSpec,
      {{"setshaft",
        [](ProcCall& call) {
          StationArray ecom = station_from(call.arg("ecom"));
          StationArray etur = station_from(call.arg("etur"));
          call.set_real("ecorr",
                        tess::setshaft(ecom.data(),
                                       static_cast<int>(call.integer("incom")),
                                       etur.data(),
                                       static_cast<int>(call.integer("intur"))));
        }},
       {"shaft",
        [](ProcCall& call) {
          StationArray ecom = station_from(call.arg("ecom"));
          StationArray etur = station_from(call.arg("etur"));
          call.set_real(
              "dxspl",
              tess::shaft(ecom.data(),
                          static_cast<int>(call.integer("incom")),
                          etur.data(),
                          static_cast<int>(call.integer("intur")),
                          call.real("ecorr"), call.real("xspool"),
                          call.real("xmyi")));
        }}},
      opt);
}

sim::ProgramImage duct_image(double compute_us) {
  rpc::ProcedureImageOptions opt;
  opt.language = rpc::SourceLanguage::kFortran;
  opt.compute_us_per_call = compute_us;
  return rpc::make_procedure_image(
      kDuctSpec, {{"duct", [](ProcCall& call) {
                     tess::GasState out = tess::duct(
                         tess::from_array(station_from(call.arg("stin"))),
                         call.real("dp"));
                     call.set("stout", station_value(tess::to_array(out)));
                   }}},
      opt);
}

sim::ProgramImage combustor_image(double compute_us) {
  rpc::ProcedureImageOptions opt;
  opt.language = rpc::SourceLanguage::kFortran;
  opt.compute_us_per_call = compute_us;
  return rpc::make_procedure_image(
      kCombustorSpec,
      {{"combustor", [](ProcCall& call) {
          tess::CombustorResult r = tess::combustor(
              tess::from_array(station_from(call.arg("stin"))),
              call.real("wfuel"), call.real("effb"), call.real("dp"));
          call.set("stout", station_value(tess::to_array(r.out)));
        }}},
      opt);
}

sim::ProgramImage nozzle_image(double compute_us) {
  rpc::ProcedureImageOptions opt;
  opt.language = rpc::SourceLanguage::kFortran;
  opt.compute_us_per_call = compute_us;
  return rpc::make_procedure_image(
      kNozzleSpec, {{"nozzle", [](ProcCall& call) {
                       tess::NozzleResult r = tess::nozzle(
                           tess::from_array(station_from(call.arg("stin"))),
                           call.real("area"), call.real("pamb"));
                       call.set("result",
                                Value::real_array({r.w_required, r.thrust,
                                                   r.exit_velocity,
                                                   r.choked ? 1.0 : 0.0}));
                     }}},
      opt);
}

sim::ProgramImage hifi_duct_image(tess::HifiDuctConfig config,
                                  double compute_us) {
  rpc::ProcedureImageOptions opt;
  opt.language = rpc::SourceLanguage::kFortran;
  opt.compute_us_per_call = compute_us;
  return rpc::make_procedure_image(
      kDuctSpec,
      {{"duct", [config](ProcCall& call) {
          // Same interface as the level-1 duct; the dp argument is
          // superseded by the level-2 physics.
          tess::HifiDuctResult r = tess::hifi_duct(
              tess::from_array(station_from(call.arg("stin"))), config);
          call.set("stout", station_value(tess::to_array(r.out)));
        }}},
      opt);
}

void install_tess_procedures(sim::Cluster& cluster,
                             const std::string& machine) {
  cluster.install_image(machine, kShaftPath, shaft_image());
  cluster.install_image(machine, kDuctPath, duct_image());
  cluster.install_image(machine, kHifiDuctPath, hifi_duct_image());
  cluster.install_image(machine, kCombustorPath, combustor_image());
  cluster.install_image(machine, kNozzlePath, nozzle_image());
}

void install_tess_procedures_everywhere(sim::Cluster& cluster) {
  for (const std::string& machine : cluster.machine_names()) {
    install_tess_procedures(cluster, machine);
  }
}

}  // namespace npss::glue

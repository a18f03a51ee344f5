// heterogeneous_marshal — data exchange across unlike machines (§4.1).
//
// Demonstrates, at the byte level, the heterogeneity problems the paper
// reports adding the Cray Y-MP and IBM machines to Schooner:
//   * the same double's native image on Sparc (IEEE big-endian), i860
//     (IEEE little-endian), Cray (64-bit, 15-bit exponent) and IBM/370
//     (hexadecimal float);
//   * precision movement through the UTS canonical form;
//   * the out-of-range policy — a Cray value beyond IEEE range raises an
//     error instead of becoming infinity (the rejected alternative);
//   * Fortran name-case conventions resolved by Manager synonyms.
//
//   $ ./heterogeneous_marshal
#include <cstdio>

#include "rpc/schooner.hpp"
#include "uts/canonical.hpp"

using namespace npss;
using uts::Value;

namespace {

void show_native_images(double value) {
  std::printf("native images of %.17g:\n", value);
  for (const char* name :
       {"sun-sparc10", "intel-i860", "cray-ymp", "ibm-370"}) {
    const arch::ArchDescriptor& a = arch::arch_catalog(name);
    util::Bytes image = arch::native_double(a, value);
    std::printf("  %-12s %-10s  %s\n", name,
                std::string(arch::float_format_name(a.float_double)).c_str(),
                util::hex_dump(image).c_str());
  }
}

void show_precision_loss() {
  std::printf("\nprecision through the canonical form (double = pi):\n");
  const double pi = 3.14159265358979323846;
  for (const char* name : {"sun-sparc10", "cray-ymp", "ibm-370"}) {
    const arch::ArchDescriptor& a = arch::arch_catalog(name);
    util::ByteWriter w;
    uts::encode_canonical(a, uts::Type::real_double(), Value::real(pi), w);
    util::ByteReader r(w.bytes());
    double back = uts::decode_canonical(arch::arch_catalog("sun-sparc10"),
                                        uts::Type::real_double(), r)
                      .as_real();
    std::printf("  via %-12s -> %.17g  (rel err %.1e)\n", name, back,
                std::abs(back - pi) / pi);
  }
}

void show_out_of_range_policy() {
  std::printf("\nthe Cray out-of-range policy (paper chose error over "
              "IEEE infinity):\n");
  util::Bytes word = arch::cray_out_of_range_word();
  std::printf("  cray word %s (magnitude ~2^2000)\n",
              util::hex_dump(word).c_str());
  try {
    (void)arch::float_decode(arch::FloatFormatKind::kCray64, word);
    std::printf("  !! decoded quietly — policy violated\n");
  } catch (const util::RangeError& e) {
    std::printf("  -> RangeError: %s\n", e.what());
  }

  std::printf("\nsame policy for the Cray's 64-bit INTEGER into the "
              "canonical 32-bit integer:\n");
  try {
    util::ByteWriter w;
    uts::encode_canonical(arch::arch_catalog("cray-ymp"),
                          uts::Type::integer(),
                          Value::integer(std::int64_t{1} << 40), w);
    std::printf("  !! encoded quietly — policy violated\n");
  } catch (const util::RangeError& e) {
    std::printf("  -> RangeError: %s\n", e.what());
  }
}

const char* kSumSpec = R"(
  export sumsq prog(
      "xs" val array[8] of double,
      "sum" res double)
)";

}  // namespace

int main() {
  show_native_images(101325.0);
  show_precision_loss();
  show_out_of_range_policy();

  // A real call Sparc -> Cray: the request is marshaled from IEEE,
  // computed on Cray words, and the reply re-quantized on the way back.
  sim::Cluster cluster;
  cluster.add_machine("sparc", "sun-sparc10", "site");
  cluster.add_machine("cray", "cray-ymp", "site");
  cluster.install_image(
      "cray", "/npss/bin/sumsq",
      rpc::make_procedure_image(kSumSpec, {{"sumsq", [](rpc::ProcCall& c) {
                                   double sum = 0.0;
                                   for (double x : c.reals("xs")) {
                                     sum += x * x;
                                   }
                                   c.set_real("sum", sum);
                                 }}}));
  rpc::SchoonerSystem schooner(cluster, "sparc");
  auto session = schooner.make_session("sparc");
  auto client = session->open_line(
      rpc::LineOptions{}.with_name("marshal-demo"));
  rpc::StartResult started = client->contact_schx("cray", "/npss/bin/sumsq");
  std::printf("\nthe Cray's Fortran compiler exported '%s'; importing "
              "'sumsq' still binds (Manager case synonyms):\n",
              started.exports[0].first.c_str());
  auto sumsq = client->import_proc(
      "sumsq", "import sumsq prog(\"xs\" val array[8] of double, "
               "\"sum\" res double)");
  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8};
  rpc::CallResult reply = sumsq->call({Value::real_array(xs), Value::real(0)},
                                      rpc::CallOptions::legacy());
  uts::ValueList& out = reply.values_or_raise();
  std::printf("  sum of squares over the wire: %.12f (exact 204; Cray's\n"
              "  48-bit mantissa quantizes at ~7e-15 relative)\n",
              out[1].as_real());
  client->quit();
  return 0;
}

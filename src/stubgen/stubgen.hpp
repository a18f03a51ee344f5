// The Schooner stub compiler.
//
// The original system shipped one stub compiler per supported language; it
// read UTS specification files and emitted the marshaling stubs gluing the
// user's code to the runtime (§3.1). This reproduction has two stub paths:
//
//  * the *dynamic* path used throughout the library — host.cpp/calling.cpp
//    interpret parsed signatures at call time; and
//  * this *static* generator, which emits compilable C++ source: a typed
//    client-stub class per import declaration and a dispatch-skeleton
//    per export declaration. It exists both as a library (these functions)
//    and a CLI tool (schooner-stubgen), and the generated client stubs are
//    functionally equivalent to hand-built RemoteProc calls — a test
//    compiles its output shape against golden files.
#pragma once

#include <string>

#include "uts/spec.hpp"

namespace npss::stubgen {

struct GeneratedStub {
  std::string header;  ///< C++ header text
  std::string source;  ///< C++ source text
};

/// C++ type used for a UTS type in generated code.
std::string cpp_type_for(const uts::Type& type);

/// Identifier-safe version of a procedure or parameter name.
std::string sanitize_identifier(const std::string& name);

/// Generate a client stub class for one import declaration: a constructor
/// taking rpc::Line&, and a typed call() whose parameters mirror the
/// val/var parameters and whose result struct mirrors res/var parameters.
GeneratedStub generate_client_stub(const uts::ProcDecl& decl);

/// Generate a server dispatch skeleton for one export declaration: a
/// ProcedureDef factory binding a typed handler signature.
GeneratedStub generate_server_stub(const uts::ProcDecl& decl);

/// Generate a complete header+source pair for every declaration in a spec
/// file (imports -> client stubs, exports -> server skeletons). A
/// non-empty `spec_sha256` is embedded as `kSpecSha256` so a built binary
/// can be matched against the uts_check manifest that vetted its spec.
GeneratedStub generate_all(const uts::SpecFile& spec,
                           const std::string& header_name,
                           const std::string& spec_sha256 = "");

}  // namespace npss::stubgen

#include "stubgen/stubgen.hpp"

#include <cctype>
#include <sstream>

#include "uts/canonical.hpp"
#include "uts/marshal_plan.hpp"

namespace npss::stubgen {

using uts::DeclKind;
using uts::Param;
using uts::ParamMode;
using uts::ProcDecl;
using uts::Type;
using uts::TypeKind;

std::string cpp_type_for(const Type& type) {
  switch (type.kind()) {
    case TypeKind::kFloat: return "float";
    case TypeKind::kDouble: return "double";
    case TypeKind::kInteger: return "std::int32_t";
    case TypeKind::kByte: return "std::uint8_t";
    case TypeKind::kString: return "std::string";
    case TypeKind::kArray:
      return "std::array<" + cpp_type_for(type.element()) + ", " +
             std::to_string(type.array_size()) + ">";
    case TypeKind::kRecord: {
      // Records map to std::tuple in generated signatures.
      std::string out = "std::tuple<";
      bool first = true;
      for (const uts::Field& f : type.fields()) {
        if (!first) out += ", ";
        first = false;
        out += cpp_type_for(*f.type);
      }
      return out + ">";
    }
  }
  return "void";
}

std::string sanitize_identifier(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    out.push_back(
        (std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_');
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), 'p');
  }
  return out;
}

namespace {

bool travels_in(const Param& p) {
  return p.mode == ParamMode::kVal || p.mode == ParamMode::kVar;
}

bool travels_out(const Param& p) {
  return p.mode == ParamMode::kRes || p.mode == ParamMode::kVar;
}

/// Expression converting a typed C++ argument into a uts::Value.
std::string to_value_expr(const Type& type, const std::string& var) {
  switch (type.kind()) {
    case TypeKind::kFloat:
    case TypeKind::kDouble:
      return "uts::Value::real(static_cast<double>(" + var + "))";
    case TypeKind::kInteger:
      return "uts::Value::integer(" + var + ")";
    case TypeKind::kByte:
      return "uts::Value::byte(" + var + ")";
    case TypeKind::kString:
      return "uts::Value::str(" + var + ")";
    case TypeKind::kArray: {
      std::ostringstream os;
      os << "[&]{ uts::ValueList items; items.reserve(" << type.array_size()
         << "); for (const auto& e : " << var << ") items.push_back("
         << to_value_expr(type.element(), "e")
         << "); return uts::Value::array(std::move(items)); }()";
      return os.str();
    }
    case TypeKind::kRecord: {
      std::ostringstream os;
      os << "[&]{ uts::ValueList fields;";
      std::size_t i = 0;
      for (const uts::Field& f : type.fields()) {
        os << " fields.push_back("
           << to_value_expr(*f.type, "std::get<" + std::to_string(i) + ">(" +
                                         var + ")")
           << ");";
        ++i;
      }
      os << " return uts::Value::record(std::move(fields)); }()";
      return os.str();
    }
  }
  return "uts::Value()";
}

/// Statement(s) converting a uts::Value expression into typed C++.
std::string from_value_expr(const Type& type, const std::string& value_expr) {
  switch (type.kind()) {
    case TypeKind::kFloat:
      return "static_cast<float>((" + value_expr + ").as_real())";
    case TypeKind::kDouble: return "(" + value_expr + ").as_real()";
    case TypeKind::kInteger:
      return "static_cast<std::int32_t>((" + value_expr + ").as_integer())";
    case TypeKind::kByte: return "(" + value_expr + ").as_byte()";
    case TypeKind::kString: return "(" + value_expr + ").as_string()";
    case TypeKind::kArray: {
      std::ostringstream os;
      os << "[&]{ " << cpp_type_for(type) << " out{}; const auto& items = ("
         << value_expr << ").items(); for (std::size_t i = 0; i < "
         << type.array_size() << "; ++i) out[i] = "
         << from_value_expr(type.element(), "items[i]")
         << "; return out; }()";
      return os.str();
    }
    case TypeKind::kRecord: {
      std::ostringstream os;
      os << "[&]{ const auto& fields = (" << value_expr
         << ").items(); return " << cpp_type_for(type) << "{";
      std::size_t i = 0;
      for (const uts::Field& f : type.fields()) {
        if (i) os << ", ";
        os << from_value_expr(*f.type, "fields[" + std::to_string(i) + "]");
        ++i;
      }
      os << "}; }()";
      return os.str();
    }
  }
  return "{}";
}

std::string stub_class_name(const ProcDecl& decl) {
  std::string n = sanitize_identifier(decl.name);
  n[0] = static_cast<char>(std::toupper(static_cast<unsigned char>(n[0])));
  return n + "Stub";
}

/// Render a multi-line plan listing as /// comment lines.
std::string comment_block(const std::string& text) {
  std::ostringstream os;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) os << "///   " << line << "\n";
  return os.str();
}

std::string escape_string_literal(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

GeneratedStub generate_client_stub(const ProcDecl& decl) {
  GeneratedStub stub;
  const std::string cls = stub_class_name(decl);
  const std::string import_text =
      uts::decl_to_string(ProcDecl{DeclKind::kImport, decl.name,
                                   decl.signature});

  std::ostringstream h;
  h << "/// Client stub for '" << decl.name << "' — generated by\n"
    << "/// schooner-stubgen from:\n///   "
    << uts::signature_to_string(decl.signature) << "\n";
  // Bake the compiled marshal plan into the stub's documentation so a
  // reader sees the exact wire program the call executes.
  h << "/// Request plan:\n"
    << comment_block(
           uts::compile_plan(decl.signature, uts::Direction::kRequest)
               ->describe())
    << "/// Reply plan:\n"
    << comment_block(
           uts::compile_plan(decl.signature, uts::Direction::kReply)
               ->describe());
  h << "class " << cls << " {\n public:\n";
  h << "  explicit " << cls << "(npss::rpc::Line& line)\n"
    << "      : proc_(line.import_proc(\"" << decl.name << "\",\n"
    << "            \"" << escape_string_literal(import_text) << "\")) {}\n\n";

  // Result struct: one member per out-travelling parameter.
  h << "  struct Result {\n";
  for (const Param& p : decl.signature) {
    if (travels_out(p)) {
      h << "    " << cpp_type_for(p.type) << " " << sanitize_identifier(p.name)
        << ";\n";
    }
  }
  h << "  };\n\n";

  // call() takes the in-travelling parameters.
  h << "  Result call(";
  bool first = true;
  for (const Param& p : decl.signature) {
    if (!travels_in(p)) continue;
    if (!first) h << ", ";
    first = false;
    h << "const " << cpp_type_for(p.type) << "& "
      << sanitize_identifier(p.name);
  }
  h << ") {\n";
  h << "    uts::ValueList args;\n";
  for (const Param& p : decl.signature) {
    if (travels_in(p)) {
      h << "    args.push_back("
        << to_value_expr(p.type, sanitize_identifier(p.name)) << ");\n";
    } else {
      h << "    args.push_back(uts::default_value(proc_->signature()["
        << (&p - decl.signature.data()) << "].type));\n";
    }
  }
  h << "    npss::rpc::CallResult reply =\n"
       "        proc_->call(std::move(args), "
       "npss::rpc::CallOptions::legacy());\n";
  h << "    uts::ValueList& out = reply.values_or_raise();\n";
  h << "    Result result{};\n";
  std::size_t idx = 0;
  for (const Param& p : decl.signature) {
    if (travels_out(p)) {
      h << "    result." << sanitize_identifier(p.name) << " = "
        << from_value_expr(p.type, "out[" + std::to_string(idx) + "]")
        << ";\n";
    }
    ++idx;
  }
  h << "    return result;\n  }\n\n";
  h << "  npss::rpc::RemoteProc& proc() { return *proc_; }\n\n";
  h << "  /// The compiled marshal plans the stub's calls execute.\n";
  h << "  const uts::MarshalPlan& request_plan() const { "
       "return proc_->request_plan(); }\n";
  h << "  const uts::MarshalPlan& reply_plan() const { "
       "return proc_->reply_plan(); }\n\n";
  h << " private:\n  std::unique_ptr<npss::rpc::RemoteProc> proc_;\n};\n";
  stub.header = h.str();
  return stub;
}

GeneratedStub generate_server_stub(const ProcDecl& decl) {
  GeneratedStub stub;
  const std::string fn = sanitize_identifier(decl.name);
  std::ostringstream h;
  h << "/// Server dispatch for '" << decl.name << "' — generated by\n"
    << "/// schooner-stubgen. Bind `impl` with the typed signature:\n///   (";
  bool first = true;
  for (const Param& p : decl.signature) {
    if (!first) h << ", ";
    first = false;
    h << cpp_type_for(p.type) << (travels_out(p) ? "&" : "") << " "
      << sanitize_identifier(p.name);
  }
  h << ")\n";
  h << "template <typename Fn>\n";
  h << "npss::rpc::ProcedureDef make_" << fn << "_def(Fn&& impl) {\n";
  h << "  return npss::rpc::ProcedureDef{\"" << decl.name
    << "\", [impl](npss::rpc::ProcCall& call) {\n";
  for (const Param& p : decl.signature) {
    const std::string var = sanitize_identifier(p.name);
    h << "    " << cpp_type_for(p.type) << " " << var << " = "
      << from_value_expr(p.type, "call.arg(\"" + p.name + "\")") << ";\n";
  }
  h << "    impl(";
  first = true;
  for (const Param& p : decl.signature) {
    if (!first) h << ", ";
    first = false;
    h << sanitize_identifier(p.name);
  }
  h << ");\n";
  for (const Param& p : decl.signature) {
    if (travels_out(p)) {
      h << "    call.set(\"" << p.name << "\", "
        << to_value_expr(p.type, sanitize_identifier(p.name)) << ");\n";
    }
  }
  h << "  }};\n}\n";
  stub.header = h.str();
  return stub;
}

GeneratedStub generate_all(const uts::SpecFile& spec,
                           const std::string& header_name,
                           const std::string& spec_sha256) {
  std::ostringstream h;
  h << "// Generated by schooner-stubgen — do not edit.\n";
  h << "#pragma once\n\n";
  h << "#include <array>\n#include <cstdint>\n#include <memory>\n"
    << "#include <string>\n#include <tuple>\n\n";
  h << "#include \"rpc/client.hpp\"\n#include \"rpc/host.hpp\"\n\n";
  h << "namespace uts = npss::uts;\n\n";
  h << "// header: " << header_name << "\n\n";
  if (!spec_sha256.empty()) {
    h << "/// Content hash of the spec these stubs were generated from;\n"
      << "/// compare against the `files[].sha256` entries of a\n"
      << "/// `uts_check --json` manifest to detect a stale build.\n"
      << "inline constexpr char kSpecSha256[] = \"" << spec_sha256
      << "\";\n\n";
  }
  for (const ProcDecl& decl : spec.decls) {
    if (decl.kind == DeclKind::kImport) {
      h << generate_client_stub(decl).header << "\n";
    } else {
      h << generate_server_stub(decl).header << "\n";
    }
  }
  GeneratedStub out;
  out.header = h.str();
  return out;
}

}  // namespace npss::stubgen

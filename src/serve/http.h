// Minimal HTTP/1.1 request parsing and response rendering for the query
// server.
//
// This is deliberately a SUBSET of HTTP/1.1 — exactly what a JSON query API
// and its load generator need, hardened against hostile input rather than
// grown toward generality:
//
//   * GET/POST/HEAD request line, percent-decoded path + query parameters
//   * headers (names case-folded), Content-Length bodies, keep-alive
//   * hard limits on every dimension (request-line bytes, header bytes,
//     header count, body bytes) checked BEFORE any allocation is sized by
//     attacker-controlled numbers — a hostile Content-Length of 4 GiB is
//     rejected, never reserved
//   * chunked transfer encoding is rejected (501), not implemented badly
//
// The parser is incremental: feed it the bytes received so far; it answers
// kNeedMore until a full request (head + body) is present, then reports how
// many bytes it consumed so pipelined keep-alive requests parse one at a
// time. It never throws on malformed input — hostile bytes are data, not
// exceptions — and the serialize_fuzz-style property test flips/truncates
// real requests to prove it (tests/serve_test.cpp, under ASan in CI).
//
// Responses carry no Date header and no server identity: response bytes are
// a pure function of (request, snapshot), which the serve determinism
// contract relies on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dosm::serve {

/// Hard ceilings applied while parsing. Defaults suit dashboard queries;
/// the server exposes them through ServerConfig.
struct HttpLimits {
  std::size_t max_request_line = 4096;   // method + target + version
  std::size_t max_header_bytes = 16384;  // whole head, request line included
  std::size_t max_headers = 64;
  std::size_t max_body_bytes = 1 << 20;
};

enum class ParseStatus : std::uint8_t {
  kOk,         // one complete request parsed; `consumed` bytes eaten
  kNeedMore,   // prefix of a valid request; read more bytes
  kBadRequest, // malformed — respond 400 and close
  kTooLarge,   // exceeds an HttpLimits ceiling — respond 431/413 and close
};

/// Decoded (key, value) query/form parameters, in order.
using Params = std::vector<std::pair<std::string, std::string>>;

struct HttpRequest {
  std::string method;   // upper-case: GET / POST / HEAD
  std::string target;   // raw request target, e.g. "/query?agg=summary"
  std::string path;     // percent-decoded path, e.g. "/query"
  Params params;  // decoded, in order
  std::vector<std::pair<std::string, std::string>> headers;  // names lowercased
  std::string body;
  bool keep_alive = true;  // HTTP/1.1 default, honoring Connection:

  /// First header value for a (lowercase) name, or nullptr.
  const std::string* header(std::string_view name) const;
  /// First query-parameter value for a name, or nullptr.
  const std::string* param(std::string_view name) const;
};

struct ParseResult {
  ParseStatus status = ParseStatus::kNeedMore;
  std::size_t consumed = 0;  // valid when status == kOk
  HttpRequest request;       // valid when status == kOk
  std::string error;         // human-readable, for kBadRequest / kTooLarge
};

/// Parses one request from the front of `data`. Never throws on malformed
/// input; never allocates proportionally to attacker-supplied sizes beyond
/// the limits.
ParseResult parse_request(std::string_view data, const HttpLimits& limits);

/// Parses an "a=1&b=2" query/form string into decoded pairs appended to
/// `params` (in input order). Returns false on a malformed percent escape.
bool parse_query_string(std::string_view text, Params& params);

/// The standard reason phrase for the status codes the server emits.
std::string_view reason_phrase(int status);

/// Renders a full response (status line, Content-Type, Content-Length,
/// Connection, blank line, body). Deterministic: no Date, no Server.
std::string render_response(int status, std::string_view content_type,
                            std::string_view body, bool keep_alive);

}  // namespace dosm::serve

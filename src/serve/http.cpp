#include "serve/http.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace dosm::serve {
namespace {

constexpr std::string_view kCrlf = "\r\n";

bool is_tchar(char c) {
  // RFC 7230 token characters, the ones that may appear in methods and
  // header names.
  if (std::isalnum(static_cast<unsigned char>(c))) return true;
  constexpr std::string_view kExtra = "!#$%&'*+-.^_`|~";
  return kExtra.find(c) != std::string_view::npos;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t'))
    s.remove_suffix(1);
  return s;
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Percent-decodes `in` ('+' becomes space when `form` is set). Returns
/// false on a malformed escape.
bool percent_decode(std::string_view in, bool form, std::string& out) {
  out.clear();
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const char c = in[i];
    if (c == '%') {
      if (i + 2 >= in.size()) return false;
      const int hi = hex_digit(in[i + 1]);
      const int lo = hex_digit(in[i + 2]);
      if (hi < 0 || lo < 0) return false;
      out += static_cast<char>((hi << 4) | lo);
      i += 2;
    } else if (form && c == '+') {
      out += ' ';
    } else {
      out += c;
    }
  }
  return true;
}

ParseResult fail(ParseStatus status, std::string error) {
  ParseResult result;
  result.status = status;
  result.error = std::move(error);
  return result;
}

}  // namespace

bool parse_query_string(std::string_view text, Params& params) {
  while (!text.empty()) {
    const std::size_t amp = text.find('&');
    const std::string_view pair =
        amp == std::string_view::npos ? text : text.substr(0, amp);
    text = amp == std::string_view::npos ? std::string_view{}
                                         : text.substr(amp + 1);
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    std::string key;
    std::string value;
    if (eq == std::string_view::npos) {
      if (!percent_decode(pair, /*form=*/true, key)) return false;
    } else {
      if (!percent_decode(pair.substr(0, eq), /*form=*/true, key)) return false;
      if (!percent_decode(pair.substr(eq + 1), /*form=*/true, value))
        return false;
    }
    params.emplace_back(std::move(key), std::move(value));
  }
  return true;
}

const std::string* HttpRequest::header(std::string_view name) const {
  for (const auto& [key, value] : headers)
    if (key == name) return &value;
  return nullptr;
}

const std::string* HttpRequest::param(std::string_view name) const {
  for (const auto& [key, value] : params)
    if (key == name) return &value;
  return nullptr;
}

ParseResult parse_request(std::string_view data, const HttpLimits& limits) {
  // Locate the end of the head first; every size check happens against the
  // bytes we actually hold, so nothing here allocates off hostile lengths.
  const std::size_t head_end = data.find("\r\n\r\n");
  if (head_end == std::string_view::npos) {
    if (data.size() > limits.max_header_bytes)
      return fail(ParseStatus::kTooLarge, "request head exceeds limit");
    // A request line must fit in the front of the head.
    const std::size_t line_end = data.find(kCrlf);
    if (line_end == std::string_view::npos &&
        data.size() > limits.max_request_line)
      return fail(ParseStatus::kTooLarge, "request line exceeds limit");
    return ParseResult{};  // kNeedMore
  }
  if (head_end + 4 > limits.max_header_bytes)
    return fail(ParseStatus::kTooLarge, "request head exceeds limit");

  const std::string_view head = data.substr(0, head_end);
  const std::size_t line_end = head.find(kCrlf);
  const std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  if (request_line.size() > limits.max_request_line)
    return fail(ParseStatus::kTooLarge, "request line exceeds limit");

  // METHOD SP target SP HTTP/1.x
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      request_line.find(' ', sp2 + 1) != std::string_view::npos)
    return fail(ParseStatus::kBadRequest, "malformed request line");
  const std::string_view method = request_line.substr(0, sp1);
  const std::string_view target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = request_line.substr(sp2 + 1);
  if (method.empty() || !std::all_of(method.begin(), method.end(), is_tchar))
    return fail(ParseStatus::kBadRequest, "malformed method");
  if (target.empty() || target[0] != '/')
    return fail(ParseStatus::kBadRequest, "request target must be absolute");
  if (version != "HTTP/1.1" && version != "HTTP/1.0")
    return fail(ParseStatus::kBadRequest, "unsupported HTTP version");

  ParseResult result;
  HttpRequest& request = result.request;
  request.method = std::string(method);
  request.target = std::string(target);
  request.keep_alive = version == "HTTP/1.1";

  // Headers.
  std::string_view rest =
      line_end == std::string_view::npos ? std::string_view{}
                                         : head.substr(line_end + 2);
  while (!rest.empty()) {
    const std::size_t eol = rest.find(kCrlf);
    const std::string_view line =
        eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view{}
                                         : rest.substr(eol + 2);
    if (line.empty()) return fail(ParseStatus::kBadRequest, "empty header line");
    if (request.headers.size() >= limits.max_headers)
      return fail(ParseStatus::kTooLarge, "too many headers");
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0)
      return fail(ParseStatus::kBadRequest, "malformed header line");
    const std::string_view name = line.substr(0, colon);
    if (!std::all_of(name.begin(), name.end(), is_tchar))
      return fail(ParseStatus::kBadRequest, "malformed header name");
    request.headers.emplace_back(to_lower(name),
                                 std::string(trim(line.substr(colon + 1))));
  }

  // Connection handling overrides the version default.
  if (const std::string* connection = request.header("connection")) {
    const std::string value = to_lower(*connection);
    if (value == "close") request.keep_alive = false;
    else if (value == "keep-alive") request.keep_alive = true;
  }
  if (request.header("transfer-encoding"))
    return fail(ParseStatus::kBadRequest, "transfer-encoding not supported");

  // Body: Content-Length only, bounded BEFORE we wait for or copy bytes.
  std::size_t content_length = 0;
  if (const std::string* value = request.header("content-length")) {
    const auto [ptr, ec] = std::from_chars(
        value->data(), value->data() + value->size(), content_length);
    if (ec != std::errc{} || ptr != value->data() + value->size())
      return fail(ParseStatus::kBadRequest, "malformed content-length");
    if (content_length > limits.max_body_bytes)
      return fail(ParseStatus::kTooLarge, "body exceeds limit");
  }
  const std::size_t body_begin = head_end + 4;
  if (data.size() - body_begin < content_length) return ParseResult{};
  request.body = std::string(data.substr(body_begin, content_length));

  // Split the target into decoded path + params.
  const std::size_t qmark = request.target.find('?');
  const std::string_view raw_path =
      qmark == std::string::npos
          ? std::string_view(request.target)
          : std::string_view(request.target).substr(0, qmark);
  if (!percent_decode(raw_path, /*form=*/false, request.path))
    return fail(ParseStatus::kBadRequest, "malformed percent escape in path");
  if (qmark != std::string::npos &&
      !parse_query_string(std::string_view(request.target).substr(qmark + 1),
                          request.params))
    return fail(ParseStatus::kBadRequest, "malformed query parameter");

  result.status = ParseStatus::kOk;
  result.consumed = body_begin + content_length;
  return result;
}

std::string_view reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Unknown";
  }
}

std::string render_response(int status, std::string_view content_type,
                            std::string_view body, bool keep_alive) {
  std::string out;
  out.reserve(body.size() + 128);
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += reason_phrase(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n\r\n";
  out += body;
  return out;
}

}  // namespace dosm::serve

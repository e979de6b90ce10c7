#include "serve/api.h"

#include "common/time.h"
#include "serve/json.h"
#include "serve/metrics.h"
#include "serve/router.h"

namespace dosm::serve {
namespace {

constexpr std::string_view kJson = "application/json";

/// Canonical, injective rendering of the resolved call — the cache-key
/// material. Doubles render via to_chars shortest-round-trip, so two
/// different queries always canonicalize differently.
std::string canonicalize(const ApiCall& call) {
  const query::Query& q = call.query;
  std::string out = "agg=";
  out += call.agg;
  out += ";k=";
  out += std::to_string(call.k);
  out += ";explain=";
  out += call.explain ? '1' : '0';
  out += ";t=";
  if (q.time) {
    out += json_double(q.time->begin);
    out += ',';
    out += json_double(q.time->end);
  } else {
    out += '-';
  }
  out += ";src=";
  out += core::to_string(q.source);
  out += ";pfx=";
  out += q.prefix ? q.prefix->to_string() : "-";
  out += ";asn=";
  out += q.asn ? std::to_string(*q.asn) : "-";
  out += ";cc=";
  out += q.country ? q.country->to_string() : "-";
  out += ";port=";
  out += q.port ? std::to_string(*q.port) : "-";
  out += ";min=";
  out += q.min_intensity ? json_double(*q.min_intensity) : "-";
  return out;
}

/// Applies one non-time query parameter to the call. Returns an error
/// message, or empty on success; malformed prefixes and countries throw
/// std::invalid_argument, which the caller reports.
std::string apply_param(const std::string& key, const std::string& value,
                        ApiCall& call) {
  query::Query& q = call.query;
  if (key == "source") {
    if (value == "telescope")
      q.from_source(core::SourceFilter::kTelescope);
    else if (value == "honeypot")
      q.from_source(core::SourceFilter::kHoneypot);
    else if (value == "combined")
      q.from_source(core::SourceFilter::kCombined);
    else
      return "source must be telescope|honeypot|combined";
  } else if (key == "prefix") {
    q.in_prefix(net::Prefix::parse(value));
  } else if (key == "asn") {
    std::uint64_t asn = 0;
    if (!parse_number(value, asn) || asn > 0xffffffffull)
      return "malformed asn";
    q.in_asn(static_cast<meta::Asn>(asn));
  } else if (key == "country") {
    q.in_country(meta::CountryCode(value));
  } else if (key == "port") {
    std::uint64_t port = 0;
    if (!parse_number(value, port) || port > 0xffff) return "malformed port";
    q.on_port(static_cast<std::uint16_t>(port));
  } else if (key == "min_intensity") {
    double intensity = 0.0;
    if (!parse_number(value, intensity)) return "malformed min_intensity";
    q.at_least(intensity);
  } else if (key == "agg") {
    if (value != "summary" && value != "daily" && value != "top-targets" &&
        value != "top-asns" && value != "top-countries" && value != "events")
      return "unknown agg: " + value;
    call.agg = value;
  } else if (key == "k") {
    std::uint64_t k = 0;
    if (!parse_number(value, k) || k == 0 || k > kMaxK)
      return "k must be in [1, " + std::to_string(kMaxK) + "]";
    call.k = static_cast<std::size_t>(k);
  } else if (key == "explain") {
    if (value != "0" && value != "1") return "explain must be 0 or 1";
    call.explain = value == "1";
  } else {
    return "unknown parameter: " + key;
  }
  return {};
}

}  // namespace

ApiResponse error_response(int status, std::string_view message) {
  JsonWriter w;
  w.begin_object().key("error").value(message).end_object();
  return ApiResponse{status, std::string(kJson), std::move(w).take()};
}

ApiResponse execute_root() {
  JsonWriter w;
  w.begin_object()
      .key("service")
      .value("dosmeter query server")
      .key("endpoints")
      .begin_array()
      .value("/healthz")
      .value("/metrics")
      .value("/query")
      .end_array()
      .end_object();
  return ApiResponse{200, std::string(kJson), std::move(w).take()};
}

ApiResponse execute_health(const query::Snapshot* snapshot) {
  if (snapshot == nullptr) return error_response(503, "no snapshot published");
  JsonWriter w;
  w.begin_object()
      .key("status")
      .value("ok")
      .key("snapshot_version")
      .value(snapshot->version())
      .key("events")
      .value(static_cast<std::uint64_t>(snapshot->size()))
      .key("segments")
      .value(static_cast<std::uint64_t>(snapshot->num_segments()))
      .end_object();
  return ApiResponse{200, std::string(kJson), std::move(w).take()};
}

ApiCall bad_request(std::string error) {
  ApiCall call;
  call.error = std::move(error);
  return call;
}

std::string find_duplicate(const Params& params) {
  for (std::size_t i = 0; i < params.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (params[j].first == params[i].first)
        return "duplicate parameter: " + params[i].first;
  return {};
}

std::string collect_params(const HttpRequest& request, Params& params) {
  params = request.params;
  if (request.method == "POST" && !request.body.empty() &&
      !parse_query_string(request.body, params))
    return "malformed form body";
  return find_duplicate(params);
}

ApiCall parse_query_params(const Params& params, const StudyWindow& window) {
  ApiCall call;
  // Time parameters resolve to one half-open [begin, end) range. Days and
  // raw seconds are mutually exclusive.
  std::optional<CivilDate> from;
  std::optional<CivilDate> to;
  std::optional<double> t0;
  std::optional<double> t1;
  for (const auto& [key, value] : params) {
    try {
      if (key == "from") {
        from = parse_civil(value);
      } else if (key == "to") {
        to = parse_civil(value);
      } else if (key == "t0") {
        double t = 0.0;
        if (!parse_number(value, t)) return bad_request("malformed t0");
        t0 = t;
      } else if (key == "t1") {
        double t = 0.0;
        if (!parse_number(value, t)) return bad_request("malformed t1");
        t1 = t;
      } else {
        const std::string error = apply_param(key, value, call);
        if (!error.empty()) return bad_request(error);
      }
    } catch (const std::invalid_argument& e) {
      return bad_request(std::string("malformed ") + key + ": " + e.what());
    }
  }
  if ((from || to) && (t0 || t1))
    return bad_request("from/to and t0/t1 are mutually exclusive");
  if (from || to) {
    const double begin = from ? static_cast<double>(unix_from_civil(*from))
                              : static_cast<double>(window.start_time());
    const double end =
        to ? static_cast<double>(unix_from_civil(*to) + kSecondsPerDay)
           : static_cast<double>(window.end_time());
    call.query.between(begin, end);
  } else if (t0 || t1) {
    const double begin = t0 ? *t0 : static_cast<double>(window.start_time());
    const double end = t1 ? *t1 : static_cast<double>(window.end_time());
    call.query.between(begin, end);
  }

  call.canonical = canonicalize(call);
  return call;
}

ApiCall parse_query_request(const HttpRequest& request,
                            const StudyWindow& window) {
  Params params;
  if (std::string error = collect_params(request, params); !error.empty())
    return bad_request(std::move(error));
  return parse_query_params(params, window);
}

ApiResponse execute_query(const query::Snapshot& snapshot, const ApiCall& call,
                          const query::ExecBudget& budget) {
  const query::Query& q = call.query;
  try {
    JsonWriter w;
    w.begin_object()
        .key("snapshot_version")
        .value(snapshot.version())
        .key("agg")
        .value(call.agg)
        .key("query")
        .value(query::to_string(q));
    if (call.explain) w.key("plan").value(query::to_string(snapshot.plan(q)));

    if (call.agg == "summary") {
      w.key("events").value(snapshot.count(q, budget));
      w.key("unique_targets").value(snapshot.unique_targets(q, budget));
    } else if (call.agg == "daily") {
      const auto daily = snapshot.daily_attacks(q, budget);
      w.key("days").begin_array();
      for (int d = 0; d < daily.num_days(); ++d) {
        if (daily.at(d) == 0.0) continue;
        w.begin_object()
            .key("date")
            .value(to_string(snapshot.window().date_of_day(d)))
            .key("attacks")
            .value(static_cast<std::uint64_t>(daily.at(d)))
            .end_object();
      }
      w.end_array();
    } else if (call.agg == "top-targets") {
      w.key("rows").begin_array();
      for (const auto& row : snapshot.top_targets(q, call.k, budget)) {
        w.begin_object()
            .key("target")
            .value(row.target.to_string())
            .key("events")
            .value(row.events)
            .end_object();
      }
      w.end_array();
    } else if (call.agg == "top-asns") {
      w.key("rows").begin_array();
      for (const auto& row : snapshot.top_asns(q, call.k, budget)) {
        w.begin_object()
            .key("asn")
            .value(static_cast<std::uint64_t>(row.asn))
            .key("targets")
            .value(row.targets)
            .key("events")
            .value(row.events)
            .end_object();
      }
      w.end_array();
    } else if (call.agg == "top-countries") {
      w.key("rows").begin_array();
      for (const auto& row : snapshot.top_countries(q, call.k, budget)) {
        w.begin_object()
            .key("country")
            .value(row.country.to_string())
            .key("targets")
            .value(row.targets)
            .key("share")
            .value(row.share)
            .end_object();
      }
      w.end_array();
    } else {  // events
      const auto rows = snapshot.match_rows(q, budget);
      w.key("total_rows").value(static_cast<std::uint64_t>(rows.size()));
      w.key("rows").begin_array();
      for (std::size_t i = 0; i < rows.size() && i < call.k; ++i) {
        const std::uint32_t row = rows[i];
        w.begin_object()
            .key("start")
            .value(snapshot.start_at(row))
            .key("target")
            .value(snapshot.target_at(row).to_string())
            .key("source")
            .value(snapshot.source_at(row) == core::EventSource::kTelescope
                       ? "telescope"
                       : "honeypot")
            .key("intensity")
            .value(snapshot.intensity_at(row))
            .key("port")
            .value(static_cast<std::uint64_t>(snapshot.top_port_at(row)))
            .end_object();
      }
      w.end_array();
    }
    w.end_object();
    return ApiResponse{200, std::string(kJson), std::move(w).take()};
  } catch (const query::BudgetExceeded& e) {
    Metrics& metrics = Metrics::get();
    if (e.kind() == query::BudgetExceeded::Kind::kRows)
      metrics.budget_rows_rejected.inc();
    else
      metrics.budget_time_rejected.inc();
    return error_response(422, e.what());
  } catch (const std::exception& e) {
    return error_response(500, e.what());
  }
}

void install_api_routes(Router& router) {
  const auto no_parse = [](const HttpRequest&, const RequestContext&) {
    return ApiCall{};
  };
  router.add("GET", "/", no_parse,
             [](const ApiCall&, const RequestContext&) {
               return execute_root();
             });
  router.add("GET", "/healthz", no_parse,
             [](const ApiCall&, const RequestContext& ctx) {
               return execute_health(ctx.snapshot.get());
             });
  const auto parse_query = [](const HttpRequest& request,
                              const RequestContext& ctx) {
    return parse_query_request(request, ctx.window);
  };
  const auto exec_query = [](const ApiCall& call, const RequestContext& ctx) {
    if (ctx.snapshot == nullptr)
      return error_response(503, "no snapshot published");
    return execute_query(*ctx.snapshot, call, ctx.budget);
  };
  router.add("GET", "/query", parse_query, exec_query, /*cacheable=*/true);
  router.add("POST", "/query", parse_query, exec_query, /*cacheable=*/true);
}

}  // namespace dosm::serve

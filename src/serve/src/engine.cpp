#include "orion/serve/engine.hpp"

#include <stdexcept>
#include <utility>

#include "orion/impact/flow_join.hpp"
#include "orion/store/mapped.hpp"
#include "orion/store/mapped_flow.hpp"

namespace orion::serve {

namespace {

QueryResponse fail(const QueryRequest& request, std::uint64_t generation,
                   Status status, std::string error) {
  QueryResponse response;
  response.status = status;
  response.kind = request.kind;
  response.generation = generation;
  response.error = std::move(error);
  return response;
}

QueryResponse execute_store_info(const QueryRequest& request,
                                 const EngineBackend& backend) {
  QueryResponse response;
  response.kind = QueryKind::StoreInfo;
  response.generation = backend.generation;
  StoreInfoBody& b = response.info;
  if (backend.flows == nullptr) {
    return fail(request, backend.generation, Status::BadRequest,
                "backend has no flow store");
  }
  b.sampling_rate = backend.flows->sampling_rate();
  b.flow_count = backend.flows->flow_count();
  b.start_day = backend.flows->start_day();
  b.end_day = backend.flows->end_day();
  b.segment_count = backend.flows->segments().size();
  if (backend.events != nullptr) {
    b.has_events = true;
    b.event_count = backend.events->event_count();
  }
  return response;
}

QueryResponse execute_flow_impact(const QueryRequest& request,
                                  const EngineBackend& backend) {
  if (backend.analyzer == nullptr) {
    return fail(request, backend.generation, Status::BadRequest,
                "backend has no flow analyzer");
  }
  impact::RouterDayReport report;
  try {
    report = backend.analyzer->query(request.router, request.day,
                                     impact::SourceSet(request.sources));
  } catch (const std::out_of_range&) {
    return fail(request, backend.generation, Status::NotFound,
                "no such (router, day) cell");
  } catch (const std::exception& e) {
    return fail(request, backend.generation, Status::ServerError, e.what());
  }

  QueryResponse response;
  response.kind = QueryKind::FlowImpact;
  response.generation = backend.generation;
  FlowImpactBody& b = response.impact;
  b.router = request.router;
  b.day = request.day;
  b.matched_packets = report.impact.matched_packets;
  b.total_packets = report.impact.total_packets;
  b.matched_sources = report.impact.matched_sources;
  b.probed_sources = report.probed_sources;
  for (std::size_t i = 0; i < report.protocols.size(); ++i) {
    b.protocols[i] = report.protocols[i];
  }
  b.ports_bound = impact::kPortMixBound;
  b.ports_spilled_weight = report.ports.spilled_weight();
  b.ports_spilled_adds = report.ports.spilled_adds();
  // The report's rows are already in the wire's canonical port order.
  b.ports = std::move(report.ports).rows();
  return response;
}

}  // namespace

QueryResponse execute_query(const QueryRequest& request,
                            const EngineBackend& backend) {
  try {
    switch (request.kind) {
      case QueryKind::Ping: {
        QueryResponse response;
        response.kind = QueryKind::Ping;
        response.generation = backend.generation;
        return response;
      }
      case QueryKind::StoreInfo:
        return execute_store_info(request, backend);
      case QueryKind::FlowImpact:
        return execute_flow_impact(request, backend);
    }
    return fail(request, backend.generation, Status::BadRequest,
                "unknown query kind");
  } catch (const std::exception& e) {
    return fail(request, backend.generation, Status::ServerError, e.what());
  }
}

std::vector<std::uint8_t> execute_query_bytes(const QueryRequest& request,
                                              const EngineBackend& backend) {
  return encode_response(execute_query(request, backend));
}

}  // namespace orion::serve

// The query executor behind the OQP1 protocol: one function that turns a
// QueryRequest into a QueryResponse against whatever backs the store.
//
// This is the unification point of the serve API redesign: orion_cli's
// flow-impact and flow-inspect subcommands execute their requests here
// directly, the daemon executes the same requests for remote clients,
// and bench_serve's equivalence gate holds the two accountable —
// encode_response(execute_query(req, backend)) must equal the payload the
// daemon returns for `req` on the same store generation, byte for byte.
#pragma once

#include "orion/serve/protocol.hpp"

namespace orion::impact {
class FlowImpactAnalyzer;
}
namespace orion::store {
class MappedEventStore;
class MappedFlowStore;
}

namespace orion::serve {

/// What a query executes against. `analyzer` answers FlowImpact; `flows`
/// fills StoreInfo, and `events` adds the event count to it. All
/// pointers are borrowed — the backend must outlive the call, and for
/// concurrent execution the analyzer's index cache must be pre-built
/// (StoreSnapshot does; see store_cache.hpp).
struct EngineBackend {
  const impact::FlowImpactAnalyzer* analyzer = nullptr;
  const store::MappedFlowStore* flows = nullptr;
  const store::MappedEventStore* events = nullptr;
  /// Echoed into every response — the snapshot-isolation witness.
  std::uint64_t generation = 0;
};

/// Executes one typed query. Never throws: backend faults come back as
/// Status::ServerError, absent cells as Status::NotFound, requests the
/// backend cannot serve as Status::BadRequest.
QueryResponse execute_query(const QueryRequest& request,
                            const EngineBackend& backend);

/// execute + canonical encode in one step (what the daemon sends and the
/// equivalence gate compares against).
std::vector<std::uint8_t> execute_query_bytes(const QueryRequest& request,
                                              const EngineBackend& backend);

}  // namespace orion::serve

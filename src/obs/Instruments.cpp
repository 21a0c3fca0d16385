//===- obs/Instruments.cpp - Built-in instrument bundles ------------------===//
//
// THE metric name catalog. Every name registered here must be documented
// in docs/observability.md — scripts/lint.sh greps this directory and
// fails the build when a name is missing from the docs.
//
//===----------------------------------------------------------------------===//

#include "obs/Instruments.h"

#include "bnb/BnbOptions.h"

#include <mutex>

using namespace mutk;
using namespace mutk::obs;

namespace {

MetricsRegistry &reg() { return MetricsRegistry::global(); }

} // namespace

ServiceInstruments &mutk::obs::serviceInstruments() {
  static ServiceInstruments I{
      reg().counter("mutk_service_requests_total"),
      reg().counter("mutk_service_completed_total"),
      reg().counter("mutk_service_failed_total"),
      reg().counter("mutk_service_rejected_total"),
      reg().counter("mutk_service_deadline_expired_total"),
      reg().counter("mutk_cache_whole_hits_total"),
      reg().counter("mutk_cache_whole_misses_total"),
      reg().gauge("mutk_service_inflight"),
      reg().histogram("mutk_service_request_ok_ms"),
      reg().histogram("mutk_service_request_error_ms"),
      reg().histogram("mutk_queue_wait_ms"),
      QueueInstruments{
          &reg().gauge("mutk_queue_depth"),
          &reg().counter("mutk_queue_enqueued_total"),
          &reg().counter("mutk_queue_rejected_total"),
      },
  };
  return I;
}

CacheInstruments &mutk::obs::cacheInstruments() {
  static CacheInstruments I{
      reg().counter("mutk_cache_hits_total"),
      reg().counter("mutk_cache_misses_total"),
      reg().counter("mutk_cache_evictions_total"),
  };
  return I;
}

std::vector<CacheShardInstruments>
mutk::obs::cacheShardInstruments(int NumShards) {
  // Registration de-dupes by name, so rebuilding the vector for every
  // service instance is cheap and always consistent.
  std::vector<CacheShardInstruments> Out;
  Out.reserve(static_cast<std::size_t>(NumShards));
  for (int I = 0; I < NumShards; ++I) {
    std::string Label = "{shard=\"" + std::to_string(I) + "\"}";
    Out.push_back(CacheShardInstruments{
        &reg().counter("mutk_cache_shard_hits_total" + Label),
        &reg().counter("mutk_cache_shard_misses_total" + Label),
        &reg().counter("mutk_cache_shard_evictions_total" + Label),
    });
  }
  return Out;
}

ServerInstruments &mutk::obs::serverInstruments() {
  static ServerInstruments I{
      reg().counter("mutk_server_connections_total"),
      reg().gauge("mutk_server_connections_active"),
      reg().counter("mutk_server_frames_total"),
      reg().counter("mutk_server_parse_errors_total"),
  };
  return I;
}

BnbInstruments &mutk::obs::bnbInstruments() {
  static BnbInstruments I{
      reg().counter("mutk_bnb_solves_total"),
      reg().counter("mutk_bnb_incomplete_total"),
      reg().counter("mutk_bnb_nodes_expanded_total"),
      reg().counter("mutk_bnb_nodes_generated_total"),
      reg().counter("mutk_bnb_pruned_bound_total"),
      reg().counter("mutk_bnb_pruned_threethree_total"),
      reg().counter("mutk_bnb_bound_evals_total"),
      reg().counter("mutk_bnb_ub_updates_total"),
  };
  return I;
}

void mutk::obs::recordBnbSolve(const BnbStats &Stats) {
  BnbInstruments &I = bnbInstruments();
  I.Solves.inc();
  if (!Stats.Complete)
    I.Incomplete.inc();
  I.NodesExpanded.inc(Stats.Branched);
  I.NodesGenerated.inc(Stats.Generated);
  I.PrunedByBound.inc(Stats.PrunedByBound);
  I.PrunedByThreeThree.inc(Stats.PrunedByThreeThree);
  I.BoundEvals.inc(Stats.BoundEvals);
  I.UbUpdates.inc(Stats.UbUpdates);
}

PersistInstruments &mutk::obs::persistInstruments() {
  static PersistInstruments I{
      reg().counter("mutk_persist_wal_appends_total"),
      reg().counter("mutk_persist_wal_append_bytes_total"),
      reg().counter("mutk_persist_wal_syncs_total"),
      reg().counter("mutk_persist_wal_append_errors_total"),
      reg().counter("mutk_persist_snapshot_writes_total"),
      reg().counter("mutk_persist_recovered_records_total"),
      reg().counter("mutk_persist_dropped_records_total"),
      reg().counter("mutk_persist_recovered_jobs_total"),
      reg().counter("mutk_persist_checkpoint_writes_total"),
      reg().gauge("mutk_persist_wal_bytes"),
      reg().gauge("mutk_persist_snapshot_bytes"),
      reg().histogram("mutk_persist_checkpoint_write_ms"),
  };
  return I;
}

DistInstruments &mutk::obs::distInstruments() {
  static DistInstruments I{
      reg().gauge("mutk_dist_peers_alive"),
      reg().counter("mutk_dist_peer_deaths_total"),
      reg().counter("mutk_dist_peer_revivals_total"),
      reg().counter("mutk_dist_heartbeats_sent_total"),
      reg().counter("mutk_dist_heartbeats_received_total"),
      reg().counter("mutk_dist_frames_total"),
      reg().counter("mutk_dist_frame_errors_total"),
      reg().counter("mutk_dist_jobs_lent_total"),
      reg().counter("mutk_dist_jobs_stolen_total"),
      reg().counter("mutk_dist_jobs_reenqueued_total"),
      reg().counter("mutk_dist_cache_remote_lookups_total"),
      reg().counter("mutk_dist_cache_remote_hits_total"),
      reg().counter("mutk_dist_cache_remote_timeouts_total"),
      reg().counter("mutk_dist_cache_inserts_forwarded_total"),
      reg().counter("mutk_dist_mp_sessions_total"),
      reg().counter("mutk_dist_work_stolen_total"),
      reg().counter("mutk_dist_work_donated_total"),
      reg().counter("mutk_dist_incumbent_broadcasts_total"),
  };
  return I;
}

BlockCacheInstruments &mutk::obs::blockCacheInstruments() {
  static BlockCacheInstruments I{
      reg().counter("mutk_block_cache_hits_total"),
      reg().counter("mutk_block_cache_misses_total"),
      reg().counter("mutk_block_cache_inserts_total"),
      reg().counter("mutk_block_cache_remote_lookups_total"),
      reg().counter("mutk_block_cache_remote_hits_total"),
      reg().counter("mutk_block_cache_remote_inserts_total"),
      reg().counter("mutk_block_cache_recovered_total"),
  };
  return I;
}

IncrementalInstruments &mutk::obs::incrementalInstruments() {
  static IncrementalInstruments I{
      reg().counter("mutk_incremental_requests_total"),
      reg().counter("mutk_incremental_applied_total"),
      reg().counter("mutk_incremental_no_base_total"),
      reg().counter("mutk_incremental_delta_too_large_total"),
      reg().counter("mutk_incremental_taxa_added_total"),
      reg().counter("mutk_incremental_taxa_removed_total"),
      reg().counter("mutk_incremental_entries_changed_total"),
      reg().counter("mutk_incremental_dirty_blocks_total"),
      reg().counter("mutk_incremental_clean_blocks_total"),
  };
  return I;
}

QosInstruments &mutk::obs::qosInstruments() {
  static QosInstruments I{
      reg().counter("mutk_qos_shed_total"),
      reg().counter("mutk_qos_rate_limited_total"),
      reg().counter("mutk_qos_tier_exact_total"),
      reg().counter("mutk_qos_tier_pipeline_total"),
      reg().counter("mutk_qos_tier_heuristic_total"),
      reg().counter("mutk_qos_coalesced_total"),
      reg().counter("mutk_qos_starvation_promotions_total"),
      reg().counter("mutk_qos_profile_dry_runs_total"),
      reg().counter("mutk_qos_profile_memo_hits_total"),
      reg().gauge("mutk_qos_cost_per_node_ns"),
      reg().histogram("mutk_qos_coalesce_fanout"),
      reg().histogram("mutk_qos_predicted_ms"),
      reg().histogram("mutk_qos_actual_ms"),
  };
  return I;
}

PipelineInstruments &mutk::obs::pipelineInstruments() {
  static PipelineInstruments I{
      reg().counter("mutk_pipeline_runs_total"),
      reg().counter("mutk_pipeline_blocks_total"),
      reg().counter("mutk_pipeline_block_cache_hits_total"),
      reg().counter("mutk_pipeline_exact_blocks_total"),
      reg().counter("mutk_pipeline_heuristic_blocks_total"),
      reg().counter("mutk_pipeline_height_clamps_total"),
      reg().counter("mutk_pipeline_ready_blocks_total"),
      reg().counter("mutk_pipeline_single_flight_waits_total"),
      reg().gauge("mutk_pipeline_blocks_inflight"),
      reg().histogram("mutk_pipeline_block_size"),
      reg().histogram("mutk_pipeline_block_solve_ms"),
  };
  return I;
}

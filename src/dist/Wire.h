//===- dist/Wire.h - Cluster frame codec ------------------------*- C++ -*-===//
///
/// \file
/// The frames of the `mutkd` cluster: every peer-to-peer message is one
/// frame of the shared transport (`service/Transport.h`: a little-endian
/// `u32` payload length, checked against `MaxFrameBytes` before any
/// allocation) whose payload is `[u8 verb][u64 seq][body...]`. This file
/// is the codec of that payload; `readFrame`/`writeFrame` move it. Every
/// failure mode is a distinct `FrameError`, so callers and tests can
/// tell a clean EOF from truncation, an oversized prefix, or a garbage
/// verb.
///
/// `Seq` is an RPC correlation id: request/response verbs echo it, and
/// a link whose response carries the wrong `Seq` is poisoned (closed)
/// rather than trusted. One-way verbs (heartbeats, inserts) carry 0.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_DIST_WIRE_H
#define MUTK_DIST_WIRE_H

#include "service/Transport.h"

#include <cstdint>
#include <vector>

namespace mutk::dist {

/// Frame kinds of the cluster protocol (first body byte).
enum class DistVerb : std::uint8_t {
  /// Peer control-channel opener; body = `[u32 peerId]`.
  Hello = 1,
  /// One-way liveness beacon; body = `[u32 peerId]`.
  Heartbeat = 2,
  /// Remote cache probe; body = `[u64 key][bytes identity]`.
  CacheLookup = 3,
  /// Lookup answer; body = the durable cache record
  /// (`persist::encodeCacheRecord`): `[u64 key][bytes identity][f64 cost]
  /// [u8 exact][u8 namespace][tree]`.
  CacheHit = 4,
  /// Lookup answer; body = `[u64 key]`.
  CacheMiss = 5,
  /// One-way forwarded store; body as `CacheHit`.
  CacheInsert = 6,
  /// Idle peer asks for a queued job; empty body.
  StealJob = 7,
  /// Job handed to the thief; body = `[u64 token][bytes request]`.
  JobGrant = 8,
  /// Nothing to steal; empty body.
  JobNone = 9,
  /// One-way result of a stolen job; body = `[u64 token][bytes response]`.
  JobResult = 10,
  /// Opens a B&B slave session on this connection; body =
  /// `MpSessionSpec` (`dist/DistBnb.h`). Everything after is `MpMsg`.
  MpOpen = 11,
  /// One `mp` protocol message; body = `[u32 src][u32 dest][i32 tag]
  /// [payload...]`.
  MpMsg = 12,
};

/// Largest valid `DistVerb` value; anything above is a garbage tag.
inline constexpr std::uint8_t MaxDistVerb =
    static_cast<std::uint8_t>(DistVerb::MpMsg);

/// One decoded cluster frame.
struct DistFrame {
  DistVerb Verb = DistVerb::Hello;
  /// RPC correlation id; 0 for one-way frames.
  std::uint64_t Seq = 0;
  std::vector<std::uint8_t> Body;
};

/// Encodes \p Frame into one frame payload (without the `u32` length).
std::vector<std::uint8_t> encodeDistFrame(const DistFrame &Frame);

/// Decodes a frame payload. \returns `None` on success, `Truncated` on a
/// payload shorter than the verb+seq prelude, `BadVerb` on an unknown
/// verb byte.
FrameError decodeDistFrame(const std::vector<std::uint8_t> &Payload,
                           DistFrame &Out);

/// Bytes \p Frame occupies on the wire (length prefix included).
std::uint64_t distFrameWireBytes(const DistFrame &Frame);

/// Sets `SO_RCVTIMEO` so blocking reads fail with a timeout instead of
/// hanging on a silent peer. \p TimeoutSeconds <= 0 clears the timeout.
bool setRecvTimeout(int Fd, double TimeoutSeconds);

} // namespace mutk::dist

#endif // MUTK_DIST_WIRE_H

//===- dist/Wire.cpp - Cluster frame codec ---------------------------------===//

#include "dist/Wire.h"

#include "mp/Serialize.h"

#include <sys/socket.h>

using namespace mutk;
using namespace mutk::dist;

std::vector<std::uint8_t> mutk::dist::encodeDistFrame(const DistFrame &Frame) {
  ByteWriter Writer;
  Writer.writeU8(static_cast<std::uint8_t>(Frame.Verb));
  Writer.writeU64(Frame.Seq);
  std::vector<std::uint8_t> Out = Writer.take();
  Out.insert(Out.end(), Frame.Body.begin(), Frame.Body.end());
  return Out;
}

FrameError mutk::dist::decodeDistFrame(const std::vector<std::uint8_t> &Payload,
                                       DistFrame &Out) {
  if (Payload.size() < 9)
    return FrameError::Truncated;
  std::uint8_t Verb = Payload[0];
  if (Verb < 1 || Verb > MaxDistVerb)
    return FrameError::BadVerb;
  Out.Verb = static_cast<DistVerb>(Verb);
  std::uint64_t Seq = 0;
  for (int I = 0; I < 8; ++I)
    Seq |= static_cast<std::uint64_t>(Payload[1 + static_cast<std::size_t>(I)])
           << (8 * I);
  Out.Seq = Seq;
  Out.Body.assign(Payload.begin() + 9, Payload.end());
  return FrameError::None;
}

std::uint64_t mutk::dist::distFrameWireBytes(const DistFrame &Frame) {
  return 4 + 9 + static_cast<std::uint64_t>(Frame.Body.size());
}

bool mutk::dist::setRecvTimeout(int Fd, double TimeoutSeconds) {
  timeval Tv{};
  if (TimeoutSeconds > 0) {
    Tv.tv_sec = static_cast<time_t>(TimeoutSeconds);
    Tv.tv_usec = static_cast<suseconds_t>(
        (TimeoutSeconds - static_cast<double>(Tv.tv_sec)) * 1e6);
  }
  return ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv)) == 0;
}

#include "net/wire.h"

#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "engine/policy_artifact.h"
#include "util/macros.h"
#include "util/status.h"
#include "util/stringf.h"
#include "util/text_codec.h"

namespace crowdprice::net {

namespace {

/// Parse-side cap on batch sizes and per-request type counts: a hostile
/// count field must not make the decoder allocate unboundedly before the
/// payload length check would catch it.
constexpr long kMaxBatchRequests = 1 << 20;
constexpr long kMaxTaskTypes = 1 << 12;

/// Line/byte reader over a payload. Unlike the plan codec's LineReader
/// this one tracks an explicit offset, so control ops can pull a
/// byte-counted artifact block out of the middle of the text.
class Cursor {
 public:
  explicit Cursor(const std::string& text) : text_(text) {}

  Result<std::string> Line(const char* what) {
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument(
          StringF("payload truncated: expected %s", what));
    }
    const size_t newline = text_.find('\n', pos_);
    const size_t end = newline == std::string::npos ? text_.size() : newline;
    std::string line = text_.substr(pos_, end - pos_);
    pos_ = newline == std::string::npos ? text_.size() : newline + 1;
    return line;
  }

  Result<std::string> Bytes(size_t n, const char* what) {
    if (text_.size() - pos_ < n) {
      return Status::InvalidArgument(
          StringF("payload truncated: expected %zu bytes of %s, have %zu", n,
                  what, text_.size() - pos_));
    }
    std::string bytes = text_.substr(pos_, n);
    pos_ += n;
    return bytes;
  }

  bool AtEnd() const { return pos_ >= text_.size(); }

 private:
  const std::string& text_;
  size_t pos_ = 0;
};

Status ExpectEnd(const Cursor& cursor, const char* what) {
  if (!cursor.AtEnd()) {
    return Status::InvalidArgument(
        StringF("trailing bytes after %s", what));
  }
  return Status::OK();
}

/// Splits `line` into exactly `n` space-separated tokens plus the raw
/// remainder (for trailing escaped messages). With rest == nullptr the
/// line must hold exactly `n` tokens.
Result<std::vector<std::string>> SplitN(const std::string& line, size_t n,
                                        std::string* rest, const char* what) {
  std::vector<std::string> tokens;
  size_t pos = 0;
  while (tokens.size() < n) {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    const size_t start = pos;
    while (pos < line.size() && line[pos] != ' ') ++pos;
    if (pos == start) {
      return Status::InvalidArgument(
          StringF("%s: expected %zu fields, found %zu", what, n,
                  tokens.size()));
    }
    tokens.push_back(line.substr(start, pos - start));
  }
  if (rest != nullptr) {
    if (pos < line.size() && line[pos] == ' ') ++pos;
    *rest = line.substr(pos);
  } else {
    while (pos < line.size() && line[pos] == ' ') ++pos;
    if (pos != line.size()) {
      return Status::InvalidArgument(
          StringF("%s: unexpected trailing fields", what));
    }
  }
  return tokens;
}

Result<uint64_t> ParseId(const std::string& token, const char* what) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (end == token.c_str() || *end != '\0' || token[0] == '-') {
    return Status::InvalidArgument(
        StringF("%s: bad campaign id '%s'", what, token.c_str()));
  }
  return static_cast<uint64_t>(v);
}

std::string EscapeMessage(const std::string& message) {
  std::string out;
  out.reserve(message.size());
  for (char c : message) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeMessage(const std::string& escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\') {
      out += escaped[i];
      continue;
    }
    if (i + 1 >= escaped.size()) {
      return Status::InvalidArgument("message ends in a bare backslash");
    }
    switch (escaped[++i]) {
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        return Status::InvalidArgument(
            StringF("bad escape '\\%c' in message", escaped[i]));
    }
  }
  return out;
}

/// The `<now> <campaign> <k> <remaining...>` suffix shared by the single
/// request line and batch request lines.
void AppendRequestFields(const market::DecisionRequest& request,
                         std::ostringstream* out) {
  *out << Hex(request.now_hours) << " " << Hex(request.campaign_hours) << " "
       << request.remaining.size();
  for (int64_t n : request.remaining) *out << " " << n;
}

Result<market::DecisionRequest> ParseRequestFields(
    const std::vector<std::string>& tokens, size_t offset, const char* what) {
  market::DecisionRequest request;
  CP_ASSIGN_OR_RETURN(request.now_hours,
                      ParseDouble(tokens[offset], "now_hours"));
  CP_ASSIGN_OR_RETURN(request.campaign_hours,
                      ParseDouble(tokens[offset + 1], "campaign_hours"));
  CP_ASSIGN_OR_RETURN(long num_types,
                      ParseInt(tokens[offset + 2], "num task types"));
  if (num_types < 0 || num_types > kMaxTaskTypes) {
    return Status::InvalidArgument(
        StringF("%s: task type count %ld out of range", what, num_types));
  }
  if (tokens.size() != offset + 3 + static_cast<size_t>(num_types)) {
    return Status::InvalidArgument(
        StringF("%s: expected %zu fields, found %zu", what,
                offset + 3 + static_cast<size_t>(num_types), tokens.size()));
  }
  request.remaining.reserve(static_cast<size_t>(num_types));
  for (long i = 0; i < num_types; ++i) {
    CP_ASSIGN_OR_RETURN(
        long remaining,
        ParseInt(tokens[offset + 3 + static_cast<size_t>(i)], "remaining"));
    request.remaining.push_back(remaining);
  }
  return request;
}

/// The `<k> <price> <group> ...` suffix shared by the sheet line and ok
/// response lines.
void AppendSheetFields(const market::OfferSheet& sheet,
                       std::ostringstream* out) {
  *out << sheet.offers.size();
  for (const market::Offer& offer : sheet.offers) {
    *out << " " << Hex(offer.per_task_reward_cents) << " "
         << offer.group_size;
  }
}

Result<market::OfferSheet> ParseSheetFields(
    const std::vector<std::string>& tokens, size_t offset, const char* what) {
  market::OfferSheet sheet;
  CP_ASSIGN_OR_RETURN(long num_offers,
                      ParseInt(tokens[offset], "num offers"));
  if (num_offers < 0 || num_offers > kMaxTaskTypes) {
    return Status::InvalidArgument(
        StringF("%s: offer count %ld out of range", what, num_offers));
  }
  if (tokens.size() != offset + 1 + 2 * static_cast<size_t>(num_offers)) {
    return Status::InvalidArgument(
        StringF("%s: expected %zu fields, found %zu", what,
                offset + 1 + 2 * static_cast<size_t>(num_offers),
                tokens.size()));
  }
  sheet.offers.reserve(static_cast<size_t>(num_offers));
  for (long i = 0; i < num_offers; ++i) {
    market::Offer offer;
    const size_t base = offset + 1 + 2 * static_cast<size_t>(i);
    CP_ASSIGN_OR_RETURN(offer.per_task_reward_cents,
                        ParseDouble(tokens[base], "per_task_reward_cents"));
    CP_ASSIGN_OR_RETURN(long group, ParseInt(tokens[base + 1], "group_size"));
    offer.group_size = static_cast<int>(group);
    sheet.offers.push_back(offer);
  }
  return sheet;
}

std::string SerializeDecideRequestLine(const serving::DecideRequest& request) {
  std::ostringstream out;
  out << "request " << request.campaign_id << " ";
  AppendRequestFields(request.request, &out);
  return out.str();
}

Result<serving::DecideResponse> ParseDecideResponseLine(
    const std::string& line, const char* what) {
  std::string rest;
  CP_ASSIGN_OR_RETURN(std::vector<std::string> head,
                      SplitN(line, 3, &rest, what));
  if (head[0] != "response") {
    return Status::InvalidArgument(
        StringF("%s: expected 'response <id> ok|err ...'", what));
  }
  serving::DecideResponse response;
  CP_ASSIGN_OR_RETURN(response.campaign_id, ParseId(head[1], what));
  if (head[2] == "ok") {
    std::istringstream ss(rest);
    std::vector<std::string> tokens;
    std::string token;
    while (ss >> token) tokens.push_back(token);
    if (tokens.empty()) {
      return Status::InvalidArgument(
          StringF("%s: ok response missing sheet fields", what));
    }
    CP_ASSIGN_OR_RETURN(response.sheet, ParseSheetFields(tokens, 0, what));
    return response;
  }
  if (head[2] == "err") {
    CP_RETURN_IF_ERROR(DecodeStatusFragment(rest, &response.status));
    if (response.status.ok()) {
      return Status::InvalidArgument(
          StringF("%s: err response carries an OK status", what));
    }
    return response;
  }
  return Status::InvalidArgument(
      StringF("%s: expected 'ok' or 'err', got '%s'", what, head[2].c_str()));
}

}  // namespace

Result<serving::DecideRequest> ParseDecideRequestLine(const std::string& line,
                                                      const char* what) {
  std::istringstream ss(line);
  std::vector<std::string> tokens;
  std::string token;
  while (ss >> token) tokens.push_back(token);
  if (tokens.size() < 5 || tokens[0] != "request") {
    return Status::InvalidArgument(
        StringF("%s: expected 'request <id> <now> <campaign> <k> ...'", what));
  }
  serving::DecideRequest request;
  CP_ASSIGN_OR_RETURN(request.campaign_id, ParseId(tokens[1], what));
  CP_ASSIGN_OR_RETURN(request.request, ParseRequestFields(tokens, 2, what));
  return request;
}

std::string SerializeDecideResponseLine(
    const serving::DecideResponse& response) {
  std::ostringstream out;
  out << "response " << response.campaign_id;
  if (response.status.ok()) {
    out << " ok ";
    AppendSheetFields(response.sheet, &out);
  } else {
    out << " err " << EncodeStatusFragment(response.status);
  }
  return out.str();
}

void EncodeFrameHeader(const FrameHeader& header,
                       char out[kFrameHeaderBytes]) {
  std::memcpy(out, kFrameMagic, sizeof(kFrameMagic));
  out[4] = static_cast<char>(header.version & 0xff);
  out[5] = static_cast<char>((header.version >> 8) & 0xff);
  const auto type = static_cast<uint16_t>(header.type);
  out[6] = static_cast<char>(type & 0xff);
  out[7] = static_cast<char>((type >> 8) & 0xff);
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = static_cast<char>((header.payload_bytes >> (8 * i)) & 0xff);
  }
}

Result<FrameHeader> DecodeFrameHeader(const char* data, size_t size,
                                      uint32_t max_payload_bytes) {
  if (size < kFrameHeaderBytes) {
    return Status::InvalidArgument(
        StringF("truncated frame header: %zu of %zu bytes", size,
                kFrameHeaderBytes));
  }
  if (std::memcmp(data, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Status::InvalidArgument("bad frame magic");
  }
  auto byte = [&](size_t i) {
    return static_cast<uint32_t>(static_cast<unsigned char>(data[i]));
  };
  FrameHeader header;
  header.version = static_cast<uint16_t>(byte(4) | (byte(5) << 8));
  if (header.version != kWireVersion) {
    return Status::InvalidArgument(
        StringF("unsupported wire version %u (expected %u)", header.version,
                kWireVersion));
  }
  const auto type = static_cast<uint16_t>(byte(6) | (byte(7) << 8));
  if (type < static_cast<uint16_t>(FrameType::kDecideBatchRequest) ||
      type > static_cast<uint16_t>(FrameType::kExportResponse)) {
    return Status::InvalidArgument(StringF("unknown frame type %u", type));
  }
  header.type = static_cast<FrameType>(type);
  header.payload_bytes =
      byte(8) | (byte(9) << 8) | (byte(10) << 16) | (byte(11) << 24);
  if (header.payload_bytes > max_payload_bytes) {
    return Status::InvalidArgument(
        StringF("frame payload %u bytes exceeds limit %u",
                header.payload_bytes, max_payload_bytes));
  }
  return header;
}

Result<std::string> EncodeFrame(FrameType type, const std::string& payload,
                                uint32_t max_payload_bytes) {
  if (payload.size() > max_payload_bytes) {
    return Status::InvalidArgument(
        StringF("frame payload %zu bytes exceeds limit %u", payload.size(),
                max_payload_bytes));
  }
  FrameHeader header;
  header.type = type;
  header.payload_bytes = static_cast<uint32_t>(payload.size());
  std::string frame(kFrameHeaderBytes, '\0');
  EncodeFrameHeader(header, frame.data());
  frame += payload;
  return frame;
}

std::string EncodeStatusFragment(const Status& status) {
  return StringF("%d %s", static_cast<int>(status.code()),
                 EscapeMessage(status.message()).c_str());
}

Status DecodeStatusFragment(const std::string& fragment, Status* decoded) {
  std::string rest;
  CP_ASSIGN_OR_RETURN(std::vector<std::string> head,
                      SplitN(fragment, 1, &rest, "status fragment"));
  CP_ASSIGN_OR_RETURN(long value, ParseInt(head[0], "status code"));
  StatusCode code = StatusCode::kOk;
  if (!StatusCodeFromInt(static_cast<int>(value), &code)) {
    return Status::InvalidArgument(
        StringF("unknown status code %ld on the wire", value));
  }
  CP_ASSIGN_OR_RETURN(std::string message, UnescapeMessage(rest));
  if (code == StatusCode::kOk) {
    if (!message.empty()) {
      return Status::InvalidArgument("OK status carries a message");
    }
    *decoded = Status::OK();
    return Status::OK();
  }
  *decoded = Status(code, std::move(message));
  return Status::OK();
}

std::string SerializeOfferSheet(const market::OfferSheet& sheet) {
  std::ostringstream out;
  out << "sheet ";
  AppendSheetFields(sheet, &out);
  out << "\n";
  return out.str();
}

Result<std::string> SerializeControlOp(const serving::ControlOp& op) {
  std::ostringstream out;
  switch (op.kind) {
    case serving::ControlOp::Kind::kAdmit: {
      if (op.controller != nullptr) {
        return Status::InvalidArgument(
            "controller-backed admits are process-local and cannot cross "
            "the wire; admit an artifact instead");
      }
      if (op.artifact == nullptr) {
        return Status::InvalidArgument("admit op carries no artifact");
      }
      CP_ASSIGN_OR_RETURN(std::string blob, op.artifact->Serialize());
      out << "control admit";
      // Explicit-id admits (migration re-admits) carry their id in the
      // verb so a plain admit's wire form is unchanged.
      if (op.id != 0) out << "-at " << op.id;
      out << " " << op.limits.total_tasks << " "
          << Hex(op.limits.deadline_hours) << " " << Hex(op.limits.admit_hours)
          << " artifact " << blob.size() << "\n"
          << blob;
      return out.str();
    }
    case serving::ControlOp::Kind::kSwapArtifact: {
      if (op.artifact == nullptr) {
        return Status::InvalidArgument("swap op carries no artifact");
      }
      CP_ASSIGN_OR_RETURN(std::string blob, op.artifact->Serialize());
      out << "control swap " << op.id << " artifact " << blob.size() << "\n"
          << blob;
      return out.str();
    }
    case serving::ControlOp::Kind::kRetire:
      out << "control retire " << op.id << "\n";
      return out.str();
    case serving::ControlOp::Kind::kTick:
      out << "control tick " << op.id << " " << Hex(op.now_hours) << " "
          << op.remaining_tasks << "\n";
      return out.str();
  }
  return Status::InvalidArgument(
      StringF("unknown control op kind %d", static_cast<int>(op.kind)));
}

namespace {

Result<std::shared_ptr<const engine::PolicyArtifact>> ReadArtifactBlock(
    Cursor* cursor, const std::string& marker, const std::string& count,
    const char* what) {
  if (marker != "artifact") {
    return Status::InvalidArgument(
        StringF("%s: expected 'artifact <bytes>'", what));
  }
  CP_ASSIGN_OR_RETURN(long bytes, ParseInt(count, "artifact byte count"));
  if (bytes < 0) {
    return Status::InvalidArgument(
        StringF("%s: negative artifact byte count", what));
  }
  CP_ASSIGN_OR_RETURN(std::string blob,
                      cursor->Bytes(static_cast<size_t>(bytes), "artifact"));
  CP_ASSIGN_OR_RETURN(engine::PolicyArtifact artifact,
                      engine::PolicyArtifact::Deserialize(blob));
  return std::make_shared<const engine::PolicyArtifact>(std::move(artifact));
}

}  // namespace

Result<serving::ControlOp> DeserializeControlOp(const std::string& text) {
  Cursor cursor(text);
  CP_ASSIGN_OR_RETURN(std::string line, cursor.Line("control line"));
  std::istringstream ss(line);
  std::vector<std::string> tokens;
  std::string token;
  while (ss >> token) tokens.push_back(token);
  if (tokens.size() < 2 || tokens[0] != "control") {
    return Status::InvalidArgument("expected 'control <verb> ...'");
  }
  const std::string& verb = tokens[1];
  if (verb == "admit" || verb == "admit-at") {
    // admit-at (the migration re-admit) is admit plus a leading target id.
    const bool with_id = verb == "admit-at";
    const size_t base = with_id ? 3 : 2;
    if (tokens.size() != base + 5) {
      return Status::InvalidArgument(
          with_id ? "expected 'control admit-at <id> <tasks> <deadline> "
                    "<admit> artifact <bytes>'"
                  : "expected 'control admit <tasks> <deadline> <admit> "
                    "artifact <bytes>'");
    }
    serving::CampaignId id = 0;
    if (with_id) {
      CP_ASSIGN_OR_RETURN(id, ParseId(tokens[2], "control admit-at"));
      if (id == 0) {
        return Status::InvalidArgument(
            "control admit-at: id 0 means 'assign fresh' and cannot be "
            "placed explicitly");
      }
    }
    serving::CampaignLimits limits;
    CP_ASSIGN_OR_RETURN(long total, ParseInt(tokens[base], "total_tasks"));
    limits.total_tasks = total;
    CP_ASSIGN_OR_RETURN(limits.deadline_hours,
                        ParseDouble(tokens[base + 1], "deadline_hours"));
    CP_ASSIGN_OR_RETURN(limits.admit_hours,
                        ParseDouble(tokens[base + 2], "admit_hours"));
    CP_ASSIGN_OR_RETURN(std::shared_ptr<const engine::PolicyArtifact> artifact,
                        ReadArtifactBlock(&cursor, tokens[base + 3],
                                          tokens[base + 4], "control admit"));
    CP_RETURN_IF_ERROR(ExpectEnd(cursor, "control admit"));
    if (with_id) {
      return serving::ControlOp::AdmitSharedWithId(id, std::move(artifact),
                                                   limits);
    }
    return serving::ControlOp::AdmitShared(std::move(artifact), limits);
  }
  if (verb == "swap") {
    if (tokens.size() != 5) {
      return Status::InvalidArgument(
          "expected 'control swap <id> artifact <bytes>'");
    }
    CP_ASSIGN_OR_RETURN(serving::CampaignId id,
                        ParseId(tokens[2], "control swap"));
    CP_ASSIGN_OR_RETURN(
        std::shared_ptr<const engine::PolicyArtifact> artifact,
        ReadArtifactBlock(&cursor, tokens[3], tokens[4], "control swap"));
    CP_RETURN_IF_ERROR(ExpectEnd(cursor, "control swap"));
    return serving::ControlOp::SwapArtifactShared(id, std::move(artifact));
  }
  if (verb == "retire") {
    if (tokens.size() != 3) {
      return Status::InvalidArgument("expected 'control retire <id>'");
    }
    CP_ASSIGN_OR_RETURN(serving::CampaignId id,
                        ParseId(tokens[2], "control retire"));
    CP_RETURN_IF_ERROR(ExpectEnd(cursor, "control retire"));
    return serving::ControlOp::Retire(id);
  }
  if (verb == "tick") {
    if (tokens.size() != 5) {
      return Status::InvalidArgument(
          "expected 'control tick <id> <now> <remaining>'");
    }
    CP_ASSIGN_OR_RETURN(serving::CampaignId id,
                        ParseId(tokens[2], "control tick"));
    CP_ASSIGN_OR_RETURN(double now_hours,
                        ParseDouble(tokens[3], "now_hours"));
    CP_ASSIGN_OR_RETURN(long remaining,
                        ParseInt(tokens[4], "remaining_tasks"));
    CP_RETURN_IF_ERROR(ExpectEnd(cursor, "control tick"));
    return serving::ControlOp::Tick(id, now_hours, remaining);
  }
  return Status::InvalidArgument(
      StringF("unknown control verb '%s'", verb.c_str()));
}

std::string SerializeControlAck(const Result<serving::ControlOutcome>& ack) {
  if (ack.ok()) {
    return StringF("control-ack ok %llu %d\n",
                   static_cast<unsigned long long>(ack->id),
                   static_cast<int>(ack->state));
  }
  return StringF("control-ack err %s\n",
                 EncodeStatusFragment(ack.status()).c_str());
}

Result<serving::ControlOutcome> DeserializeControlAck(
    const std::string& text) {
  Cursor cursor(text);
  CP_ASSIGN_OR_RETURN(std::string line, cursor.Line("control-ack line"));
  CP_RETURN_IF_ERROR(ExpectEnd(cursor, "control-ack line"));
  std::string rest;
  CP_ASSIGN_OR_RETURN(std::vector<std::string> head,
                      SplitN(line, 2, &rest, "control-ack line"));
  if (head[0] != "control-ack") {
    return Status::InvalidArgument("expected 'control-ack ok|err ...'");
  }
  if (head[1] == "ok") {
    CP_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                        SplitN(rest, 2, nullptr, "control-ack outcome"));
    serving::ControlOutcome outcome;
    CP_ASSIGN_OR_RETURN(outcome.id, ParseId(fields[0], "control-ack"));
    CP_ASSIGN_OR_RETURN(long state, ParseInt(fields[1], "campaign state"));
    if (state < static_cast<long>(serving::CampaignState::kLive) ||
        state > static_cast<long>(serving::CampaignState::kRetiredExplicit)) {
      return Status::InvalidArgument(
          StringF("unknown campaign state %ld on the wire", state));
    }
    outcome.state = static_cast<serving::CampaignState>(state);
    return outcome;
  }
  if (head[1] == "err") {
    Status status;
    CP_RETURN_IF_ERROR(DecodeStatusFragment(rest, &status));
    if (status.ok()) {
      return Status::InvalidArgument("err ack carries an OK status");
    }
    return status;
  }
  return Status::InvalidArgument(
      StringF("expected 'ok' or 'err', got '%s'", head[1].c_str()));
}

std::string SerializeDecideBatchRequest(
    const std::vector<serving::DecideRequest>& requests) {
  std::vector<std::string> lines;
  lines.reserve(requests.size());
  for (const serving::DecideRequest& request : requests) {
    lines.push_back(SerializeDecideRequestLine(request));
  }
  return JoinDecideBatchPayload(lines);
}

Result<std::vector<serving::DecideRequest>> DeserializeDecideBatchRequest(
    const std::string& text) {
  CP_ASSIGN_OR_RETURN(
      std::vector<std::string> lines,
      SplitDecideBatchPayload(text, "decide batch", DecidePayload::kRequest));
  std::vector<serving::DecideRequest> requests;
  requests.reserve(lines.size());
  for (const std::string& line : lines) {
    CP_ASSIGN_OR_RETURN(serving::DecideRequest request,
                        ParseDecideRequestLine(line, "batch request line"));
    requests.push_back(std::move(request));
  }
  return requests;
}

std::string SerializeDecideBatchResponse(
    const std::vector<serving::DecideResponse>& responses) {
  std::vector<std::string> lines;
  lines.reserve(responses.size());
  for (const serving::DecideResponse& response : responses) {
    lines.push_back(SerializeDecideResponseLine(response));
  }
  return JoinDecideBatchPayload(lines);
}

std::string SerializeBatchError(const Status& status) {
  return StringF("err %s\n", EncodeStatusFragment(status).c_str());
}

Result<std::vector<serving::DecideResponse>> DeserializeDecideBatchResponse(
    const std::string& text) {
  CP_ASSIGN_OR_RETURN(std::vector<std::string> lines,
                      SplitDecideBatchPayload(text, "batch response"));
  std::vector<serving::DecideResponse> responses;
  responses.reserve(lines.size());
  for (const std::string& line : lines) {
    CP_ASSIGN_OR_RETURN(serving::DecideResponse response,
                        ParseDecideResponseLine(line, "batch response line"));
    responses.push_back(std::move(response));
  }
  return responses;
}

Result<std::vector<std::string>> SplitDecideBatchPayload(
    const std::string& payload, const char* what, DecidePayload kind) {
  Cursor cursor(payload);
  CP_ASSIGN_OR_RETURN(std::string header, cursor.Line(what));
  // The whole-batch error form: `err <code> <message>`.
  if (kind == DecidePayload::kResponse && header.rfind("err", 0) == 0 &&
      (header.size() == 3 || header[3] == ' ')) {
    CP_RETURN_IF_ERROR(ExpectEnd(cursor, what));
    std::string rest;
    CP_ASSIGN_OR_RETURN(std::vector<std::string> head,
                        SplitN(header, 1, &rest, what));
    static_cast<void>(head);
    Status status;
    CP_RETURN_IF_ERROR(DecodeStatusFragment(rest, &status));
    if (status.ok()) {
      return Status::InvalidArgument(
          StringF("%s: batch error carries an OK status", what));
    }
    return status;
  }
  CP_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                      SplitN(header, 2, nullptr, what));
  if (fields[0] != "decide-batch") {
    return Status::InvalidArgument(
        StringF("%s: expected 'decide-batch <n>'", what));
  }
  CP_ASSIGN_OR_RETURN(long count, ParseInt(fields[1], what));
  if (count < 0 || count > kMaxBatchRequests) {
    return Status::InvalidArgument(
        StringF("%s: batch size %ld out of range [0, %ld]", what, count,
                kMaxBatchRequests));
  }
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(count));
  for (long i = 0; i < count; ++i) {
    CP_ASSIGN_OR_RETURN(std::string line, cursor.Line(what));
    lines.push_back(std::move(line));
  }
  CP_RETURN_IF_ERROR(ExpectEnd(cursor, what));
  return lines;
}

std::string JoinDecideBatchPayload(const std::vector<std::string>& lines) {
  std::string out = "decide-batch " + std::to_string(lines.size()) + "\n";
  size_t bytes = out.size();
  for (const std::string& line : lines) bytes += line.size() + 1;
  out.reserve(bytes);
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

Result<serving::CampaignId> DecideLineCampaignId(const std::string& line) {
  std::string rest;
  CP_ASSIGN_OR_RETURN(std::vector<std::string> head,
                      SplitN(line, 2, &rest, "decide line"));
  if (head[0] != "request" && head[0] != "response") {
    return Status::InvalidArgument(
        "expected 'request <id> ...' or 'response <id> ...'");
  }
  return ParseId(head[1], "decide line");
}

std::string SerializePingRequest() { return "ping\n"; }

Status DeserializePingRequest(const std::string& text) {
  if (text != "ping\n") {
    return Status::InvalidArgument("expected 'ping'");
  }
  return Status::OK();
}

std::string SerializePingResponse() { return "pong\n"; }

Status DeserializePingResponse(const std::string& text) {
  if (text != "pong\n") {
    return Status::InvalidArgument("expected 'pong'");
  }
  return Status::OK();
}

std::string SerializeHelloRequest(const HelloRequest& hello) {
  return StringF("hello %u %s\n", static_cast<unsigned>(hello.version),
                 EscapeMessage(hello.token).c_str());
}

Result<HelloRequest> DeserializeHelloRequest(const std::string& text) {
  Cursor cursor(text);
  CP_ASSIGN_OR_RETURN(std::string line, cursor.Line("hello line"));
  CP_RETURN_IF_ERROR(ExpectEnd(cursor, "hello line"));
  std::string rest;
  CP_ASSIGN_OR_RETURN(std::vector<std::string> head,
                      SplitN(line, 2, &rest, "hello line"));
  if (head[0] != "hello") {
    return Status::InvalidArgument("expected 'hello <version> <token>'");
  }
  CP_ASSIGN_OR_RETURN(long version, ParseInt(head[1], "hello version"));
  if (version < 0 || version > 0xffff) {
    return Status::InvalidArgument(
        StringF("hello version %ld out of range", version));
  }
  HelloRequest hello;
  hello.version = static_cast<uint16_t>(version);
  CP_ASSIGN_OR_RETURN(hello.token, UnescapeMessage(rest));
  return hello;
}

std::string SerializeHelloAck(const Status& verdict) {
  if (verdict.ok()) return "hello-ack ok\n";
  return StringF("hello-ack err %s\n",
                 EncodeStatusFragment(verdict).c_str());
}

Status DeserializeHelloAck(const std::string& text, Status* verdict) {
  Cursor cursor(text);
  CP_ASSIGN_OR_RETURN(std::string line, cursor.Line("hello-ack line"));
  CP_RETURN_IF_ERROR(ExpectEnd(cursor, "hello-ack line"));
  std::string rest;
  CP_ASSIGN_OR_RETURN(std::vector<std::string> head,
                      SplitN(line, 2, &rest, "hello-ack line"));
  if (head[0] != "hello-ack") {
    return Status::InvalidArgument("expected 'hello-ack ok|err ...'");
  }
  if (head[1] == "ok") {
    if (!rest.empty()) {
      return Status::InvalidArgument("hello-ack ok carries trailing bytes");
    }
    *verdict = Status::OK();
    return Status::OK();
  }
  if (head[1] == "err") {
    Status decoded;
    CP_RETURN_IF_ERROR(DecodeStatusFragment(rest, &decoded));
    if (decoded.ok()) {
      return Status::InvalidArgument("err hello-ack carries an OK status");
    }
    *verdict = std::move(decoded);
    return Status::OK();
  }
  return Status::InvalidArgument(
      StringF("expected 'ok' or 'err', got '%s'", head[1].c_str()));
}

std::string SerializeExportRequest(serving::CampaignId id) {
  return StringF("export %llu\n", static_cast<unsigned long long>(id));
}

Result<serving::CampaignId> DeserializeExportRequest(const std::string& text) {
  Cursor cursor(text);
  CP_ASSIGN_OR_RETURN(std::string line, cursor.Line("export line"));
  CP_RETURN_IF_ERROR(ExpectEnd(cursor, "export line"));
  CP_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                      SplitN(line, 2, nullptr, "export line"));
  if (fields[0] != "export") {
    return Status::InvalidArgument("expected 'export <id>'");
  }
  return ParseId(fields[1], "export line");
}

Result<std::string> SerializeExportResponse(
    const Result<serving::CampaignExport>& response) {
  if (!response.ok()) {
    return StringF("export err %s\n",
                   EncodeStatusFragment(response.status()).c_str());
  }
  if (response->artifact == nullptr) {
    return Status::InvalidArgument("export carries no artifact");
  }
  CP_ASSIGN_OR_RETURN(std::string blob, response->artifact->Serialize());
  std::ostringstream out;
  out << "export ok " << response->id << " " << response->limits.total_tasks
      << " " << Hex(response->limits.deadline_hours) << " "
      << Hex(response->limits.admit_hours) << " artifact " << blob.size()
      << "\n"
      << blob;
  return out.str();
}

Result<serving::CampaignExport> DeserializeExportResponse(
    const std::string& text) {
  Cursor cursor(text);
  CP_ASSIGN_OR_RETURN(std::string line, cursor.Line("export response"));
  std::string rest;
  CP_ASSIGN_OR_RETURN(std::vector<std::string> head,
                      SplitN(line, 2, &rest, "export response"));
  if (head[0] != "export") {
    return Status::InvalidArgument("expected 'export ok|err ...'");
  }
  if (head[1] == "err") {
    CP_RETURN_IF_ERROR(ExpectEnd(cursor, "export error"));
    Status status;
    CP_RETURN_IF_ERROR(DecodeStatusFragment(rest, &status));
    if (status.ok()) {
      return Status::InvalidArgument("export error carries an OK status");
    }
    return status;
  }
  if (head[1] != "ok") {
    return Status::InvalidArgument(
        StringF("expected 'ok' or 'err', got '%s'", head[1].c_str()));
  }
  CP_ASSIGN_OR_RETURN(std::vector<std::string> fields,
                      SplitN(rest, 6, nullptr, "export response"));
  serving::CampaignExport out;
  CP_ASSIGN_OR_RETURN(out.id, ParseId(fields[0], "export response"));
  if (out.id == 0) {
    return Status::InvalidArgument("export response carries id 0");
  }
  CP_ASSIGN_OR_RETURN(long total, ParseInt(fields[1], "total_tasks"));
  out.limits.total_tasks = total;
  CP_ASSIGN_OR_RETURN(out.limits.deadline_hours,
                      ParseDouble(fields[2], "deadline_hours"));
  CP_ASSIGN_OR_RETURN(out.limits.admit_hours,
                      ParseDouble(fields[3], "admit_hours"));
  CP_ASSIGN_OR_RETURN(out.artifact,
                      ReadArtifactBlock(&cursor, fields[4], fields[5],
                                        "export response"));
  CP_RETURN_IF_ERROR(ExpectEnd(cursor, "export response"));
  return out;
}

}  // namespace crowdprice::net

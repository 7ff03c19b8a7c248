#include "service/stream.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "service/protocol.hpp"

namespace ff::service {

namespace {

thread_local std::string t_campaign_scope;

}  // namespace

Json event_json(const char* name, const obs::Arg* args, size_t count) {
  Json out = Json::object();
  out["event"] = std::string(name);
  for (size_t i = 0; i < count; ++i) {
    const obs::Arg& arg = args[i];
    switch (arg.type) {
      case obs::Arg::Type::Int: out[arg.key] = arg.int_value; break;
      case obs::Arg::Type::Float: out[arg.key] = arg.float_value; break;
      case obs::Arg::Type::Str: out[arg.key] = arg.str_value; break;
    }
  }
  return out;
}

TraceStreamer& TraceStreamer::instance() {
  static TraceStreamer streamer;
  return streamer;
}

uint64_t TraceStreamer::attach(const std::string& campaign, size_t capacity,
                               std::function<void()> wake) {
  auto sub = std::make_shared<Subscription>();
  sub->campaign = campaign;
  sub->capacity = capacity > 0 ? capacity : 1;
  sub->wake = std::move(wake);
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = ++next_id_;
    subs_.emplace(id, std::move(sub));
  }
  update_listener();
  obs::trace_instant("service", "service.subscribe",
                     {{"campaign", campaign}, {"sub", static_cast<int64_t>(id)}});
  return id;
}

void TraceStreamer::detach(uint64_t id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (subs_.erase(id) == 0) return;
  }
  update_listener();
}

void TraceStreamer::update_listener() {
  std::lock_guard<std::mutex> install(install_mutex_);
  size_t active = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    active = subs_.size();
  }
  obs::TraceRecorder& recorder = obs::TraceRecorder::instance();
  if (active > 0) {
    recorder.set_listener(&TraceStreamer::on_trace, this);
  } else {
    recorder.set_listener(nullptr, nullptr);
  }
}

TraceStreamer::Subscription* TraceStreamer::find_locked(uint64_t id) const {
  auto it = subs_.find(id);
  return it == subs_.end() ? nullptr : it->second.get();
}

size_t TraceStreamer::drain(uint64_t id, std::vector<std::string>& out,
                            size_t max) {
  std::lock_guard<std::mutex> lock(mutex_);
  Subscription* sub = find_locked(id);
  if (!sub) return 0;
  const size_t taken = std::min(max, sub->frames.size());
  for (size_t i = 0; i < taken; ++i) {
    out.push_back(std::move(sub->frames.front()));
    sub->frames.pop_front();
  }
  return taken;
}

bool TraceStreamer::has_pending(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Subscription* sub = find_locked(id);
  return sub && !sub->frames.empty();
}

uint64_t TraceStreamer::dropped(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Subscription* sub = find_locked(id);
  return sub ? sub->dropped : 0;
}

size_t TraceStreamer::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return subs_.size();
}

uint64_t TraceStreamer::next_seq(const std::string& campaign) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = seqs_.find(campaign);
  return (it == seqs_.end() ? 0 : it->second) + 1;
}

void TraceStreamer::publish(const std::string& campaign, const Json& event) {
  std::string frame;
  std::vector<std::shared_ptr<Subscription>> targets;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t seq = ++seqs_[campaign];
    for (const auto& [_, sub] : subs_) {
      if (sub->campaign == campaign) targets.push_back(sub);
    }
    if (targets.empty()) return;  // seq still advances: late joiners see gaps
    Json message = Json::object();
    message["stream"] = "trace";
    message["campaign"] = campaign;
    message["seq"] = static_cast<int64_t>(seq);
    message["event"] = event;
    frame = encode_frame(message);
    // Queue under the lock so every queue's order matches seq order (two
    // racing publishers must not swap); only the wake callbacks — which
    // may take foreign locks — run outside it.
    for (const auto& sub : targets) {
      sub->frames.push_back(frame);
      if (sub->frames.size() > sub->capacity) {
        sub->frames.pop_front();  // drop-oldest
        ++sub->dropped;
      }
    }
  }
  for (const auto& sub : targets) {
    if (sub->wake) sub->wake();
  }
}

void TraceStreamer::on_trace(void* self, const obs::TraceEvent& event) {
  if (event.kind != obs::EventKind::Instant) return;
  const bool service = std::strcmp(event.category, "service") == 0;
  if (!service && std::strcmp(event.category, "savanna") != 0) return;

  std::string campaign;
  for (size_t i = 0; i < event.arg_count; ++i) {
    const obs::Arg& arg = event.args[i];
    if (arg.type == obs::Arg::Type::Str &&
        std::strcmp(arg.key, "campaign") == 0) {
      campaign = arg.str_value;
      break;
    }
  }
  if (campaign.empty()) campaign = t_campaign_scope;
  if (campaign.empty()) return;  // unattributable: not streamed

  static_cast<TraceStreamer*>(self)->publish(
      campaign, event_json(event.name, event.args.data(), event.arg_count));
}

CampaignScope::CampaignScope(std::string campaign)
    : previous_(std::move(t_campaign_scope)) {
  t_campaign_scope = std::move(campaign);
}

CampaignScope::~CampaignScope() { t_campaign_scope = std::move(previous_); }

const std::string& CampaignScope::current() { return t_campaign_scope; }

}  // namespace ff::service

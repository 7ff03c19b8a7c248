#include "service/session.hpp"

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace ff::service {

std::string SessionRegistry::open() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string id = "s" + std::to_string(++next_);
  active_ids_.insert(id);
  obs::trace_instant("service", "service.session.open", {{"session", id}});
  return id;
}

void SessionRegistry::close(const std::string& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (active_ids_.erase(id) > 0) {
    obs::trace_instant("service", "service.session.close", {{"session", id}});
  }
}

size_t SessionRegistry::active() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return active_ids_.size();
}

namespace {

Json dispatch(ServiceCore& core, std::atomic<bool>& shutdown,
              const std::string& session, const std::string& cmd,
              const Json& request, int64_t id) {
  if (cmd == "hello") {
    const int64_t wanted = request.get_or("protocol", kProtocolVersion);
    if (wanted != kProtocolVersion) {
      return error_reply(id, "bad-request",
                         "protocol " + std::to_string(wanted) +
                             " unsupported; server speaks " +
                             std::to_string(kProtocolVersion));
    }
    Json reply = ok_reply(id);
    reply["server"] = "fairflowd";
    reply["protocol"] = kProtocolVersion;
    reply["session"] = session;
    return reply;
  }
  if (cmd == "ping") {
    Json reply = ok_reply(id);
    reply["pong"] = true;
    return reply;
  }
  if (cmd == "submit") {
    const CampaignConfig config = campaign_config_from_request(request);
    const std::string name = core.submit(config, session);
    const CampaignInfo info = core.info(name);
    Json reply = ok_reply(id);
    reply["campaign"] = name;
    reply["runs"] = static_cast<int64_t>(info.run_count);
    reply["directory"] = info.directory;
    return reply;
  }
  if (cmd == "status") {
    Json reply = ok_reply(id);
    reply["campaign"] = core.info(request["campaign"].as_string()).to_json();
    return reply;
  }
  if (cmd == "list") {
    Json campaigns = Json::array();
    for (const CampaignInfo& info : core.list()) {
      campaigns.push_back(info.to_json());
    }
    Json reply = ok_reply(id);
    reply["campaigns"] = std::move(campaigns);
    return reply;
  }
  if (cmd == "lint") {
    const Json result = core.lint_workspace(request["workspace"].as_string(),
                                            request.get_or("werror", false));
    Json reply = ok_reply(id);
    for (const auto& [key, value] : result.as_object()) {
      reply[key] = value;
    }
    return reply;
  }
  if (cmd == "trace") {
    const int64_t count = request.get_or("count", int64_t{64});
    if (count < 0) return error_reply(id, "bad-request", "count must be >= 0");
    Json events = Json::array();
    for (Json& event : core.trace_tail(static_cast<size_t>(count))) {
      events.push_back(std::move(event));
    }
    Json reply = ok_reply(id);
    reply["events"] = std::move(events);
    return reply;
  }
  if (cmd == "cancel") {
    Json reply = ok_reply(id);
    reply["cancelled"] = core.cancel(request["campaign"].as_string());
    return reply;
  }
  if (cmd == "resume") {
    core.resume(request["campaign"].as_string());
    Json reply = ok_reply(id);
    reply["campaign"] = request["campaign"];
    return reply;
  }
  if (cmd == "subscribe") {
    // Valid shape, wrong transport: event frames are pushed onto the
    // connection that subscribed, which an in-process client doesn't have.
    return error_reply(id, "bad-request",
                       "subscribe is only available on a socket connection");
  }
  if (cmd == "shutdown") {
    shutdown.store(true, std::memory_order_release);
    Json reply = ok_reply(id);
    reply["draining"] = true;
    return reply;
  }
  // check_request() vets cmd against the registry, so a fall-through means
  // the registry and this dispatch switch drifted apart.
  return error_reply(id, "internal", "command '" + cmd + "' has no handler");
}

}  // namespace

Json Dispatcher::handle_subscribe(const std::string& session,
                                  const Json& request) {
  const int64_t id = request_id(request);
  Json reply;
  try {
    const std::string problem = check_request(request);
    if (!problem.empty()) {
      reply = error_reply(id, "bad-request", problem);
    } else if (shutdown_requested()) {
      reply = error_reply(id, "shutting-down",
                          "the daemon is draining; no new subscriptions");
    } else {
      const std::string campaign = request["campaign"].as_string();
      core_.info(campaign);  // NotFoundError when unknown
      reply = ok_reply(id);
      reply["campaign"] = campaign;
      reply["subscribed"] = true;
    }
  } catch (const NotFoundError& error) {
    reply = error_reply(id, "not-found", error.what());
  } catch (const std::exception& error) {
    reply = error_reply(id, "internal", error.what());
  }

  core_.emit("service.request", {{"session", session},
                                 {"cmd", "subscribe"},
                                 {"ok", reply.get_or("ok", false)}});
  return reply;
}

Json Dispatcher::handle(const std::string& session, const Json& request) {
  const int64_t id = request_id(request);
  Json reply;
  std::string cmd = "?";
  try {
    const std::string problem = check_request(request);
    if (!problem.empty()) {
      const bool unknown = problem.rfind("unknown command", 0) == 0;
      reply = error_reply(id, unknown ? "unknown-command" : "bad-request",
                          problem);
    } else {
      cmd = request["cmd"].as_string();
      if (shutdown_requested() && cmd != "ping" && cmd != "status" &&
          cmd != "list" && cmd != "trace") {
        reply = error_reply(id, "shutting-down",
                            "the daemon is draining; try another instance");
      } else {
        reply = dispatch(core_, shutdown_, session, cmd, request, id);
      }
    }
  } catch (const QuotaError& error) {
    reply = error_reply(id, "quota-exceeded", error.what());
  } catch (const NotFoundError& error) {
    reply = error_reply(id, "not-found", error.what());
  } catch (const StateError& error) {
    reply = error_reply(id, "conflict", error.what());
  } catch (const ValidationError& error) {
    // For submit, a ValidationError is the preflight lint (or an equally
    // fatal manifest defect) speaking: nothing was created.
    reply = error_reply(id, cmd == "submit" ? "lint-rejected" : "bad-request",
                        error.what());
  } catch (const std::exception& error) {
    reply = error_reply(id, "internal", error.what());
  }

  core_.emit("service.request", {{"session", session},
                                 {"cmd", cmd},
                                 {"ok", reply.get_or("ok", false)}});
  return reply;
}

}  // namespace ff::service

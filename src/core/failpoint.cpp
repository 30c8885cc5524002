#include "core/failpoint.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>

#include "obs/registry.h"

namespace xr::fail {

using core::Json;
using core::walk_strict;

namespace {

constexpr const char* kScheduleSchema = "xr.fault.schedule.v1";

const char* trigger_kind_name(Trigger::Kind k) noexcept {
  switch (k) {
    case Trigger::Kind::kNth: return "nth";
    case Trigger::Kind::kEvery: return "every";
    case Trigger::Kind::kProbability: return "probability";
  }
  return "?";
}

Trigger::Kind trigger_kind_from_name(const std::string& name) {
  for (Trigger::Kind k : {Trigger::Kind::kNth, Trigger::Kind::kEvery,
                          Trigger::Kind::kProbability})
    if (name == trigger_kind_name(k)) return k;
  throw std::invalid_argument("fault schedule: unknown trigger '" + name +
                              "' (nth | every | probability)");
}

Json trigger_to_json(const Trigger& t) {
  Json j = Json::object();
  j.set("on", trigger_kind_name(t.kind));
  if (t.kind == Trigger::Kind::kProbability)
    j.set("p", t.p);
  else
    j.set("n", t.n);
  return j;
}

Trigger trigger_from_json(const Json& j) {
  Trigger t;
  bool saw_on = false, saw_n = false, saw_p = false;
  walk_strict(j, "fault trigger", [&](const std::string& key,
                                      const Json& value) {
    if (key == "on") {
      t.kind = trigger_kind_from_name(value.as_string());
      saw_on = true;
    } else if (key == "n") {
      t.n = value.as_size();
      saw_n = true;
    } else if (key == "p") {
      t.p = value.as_double();
      saw_p = true;
    } else {
      return false;
    }
    return true;
  });
  if (!saw_on) throw std::invalid_argument("fault trigger: missing 'on'");
  if (t.kind == Trigger::Kind::kProbability) {
    if (!saw_p || saw_n)
      throw std::invalid_argument(
          "fault trigger: probability takes 'p' (and no 'n')");
    if (!(t.p >= 0.0 && t.p <= 1.0))
      throw std::invalid_argument("fault trigger: p must be in [0, 1]");
  } else {
    if (!saw_n || saw_p)
      throw std::invalid_argument(
          "fault trigger: nth/every take 'n' (and no 'p')");
    if (t.n == 0) throw std::invalid_argument("fault trigger: n must be >= 1");
  }
  return t;
}

#ifndef XR_FAULT_DISABLED

/// splitmix64: the per-rule probability stream. Small, seedable, and
/// stateless beyond one word — replaying a schedule replays the stream.
std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Process fault registry: the installed schedule plus per-rule hit/fire
/// counters and PRNG streams, all under one mutex (failpoints sit on
/// I/O-granularity paths, never in per-record inner loops).
class FaultRegistry {
 public:
  static FaultRegistry& get() {
    // Deliberately leaked, like obs::Registry::global(): hooks in static
    // destructors must never touch a destroyed registry.
    static FaultRegistry* r = new FaultRegistry;
    return *r;
  }

  void install(const FaultSchedule& schedule) {
    const std::lock_guard<std::mutex> lock(mu_);
    rules_.clear();
    for (std::size_t i = 0; i < schedule.rules.size(); ++i) {
      RuleState state;
      state.rule = schedule.rules[i];
      // Decorrelate the per-rule streams without making them order-free:
      // rule i of seed s always sees the same sequence.
      state.rng = schedule.seed ^ (0x9E3779B97F4A7C15ull * (i + 1));
      rules_.push_back(std::move(state));
    }
    loaded_.store(true, std::memory_order_release);
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    rules_.clear();
    env_checked_ = true;  // an explicit clear wins over the environment.
    loaded_.store(false, std::memory_order_release);
  }

  bool loaded() {
    maybe_load_env();
    return loaded_.load(std::memory_order_acquire);
  }

  std::optional<Fired> hit(std::string_view name) {
    maybe_load_env();
    // The no-schedule fast path: one relaxed-ish atomic load, no lock.
    if (!loaded_.load(std::memory_order_acquire)) return std::nullopt;
    const std::lock_guard<std::mutex> lock(mu_);
    // Every matching rule counts every hit (and a probability rule always
    // advances its stream), so each rule's trigger is a pure function of
    // the point's hit sequence — independent of which OTHER rules fired.
    // Of the rules firing on this hit, the first unexhausted one wins.
    std::optional<Fired> result;
    for (RuleState& state : rules_) {
      const FaultRule& rule = state.rule;
      if (rule.point != name) continue;
      ++state.hits;
      bool fire = false;
      switch (rule.trigger.kind) {
        case Trigger::Kind::kNth:
          fire = state.hits == rule.trigger.n;
          break;
        case Trigger::Kind::kEvery:
          fire = state.hits % rule.trigger.n == 0;
          break;
        case Trigger::Kind::kProbability:
          fire = double(splitmix64(state.rng) >> 11) * 0x1.0p-53 <
                 rule.trigger.p;
          break;
      }
      if (!fire) continue;
      if (rule.max_fires && state.fires >= rule.max_fires) continue;
      if (result) continue;  // shadowed this hit; not an injection.
      ++state.fires;
      fired_counter(rule.point).add();
      Fired out;
      out.action = rule.action;
      out.delay_ms = rule.delay_ms;
      out.point = rule.point;
      result = std::move(out);
    }
    return result;
  }

 private:
  struct RuleState {
    FaultRule rule;
    std::size_t hits = 0;
    std::size_t fires = 0;
    std::uint64_t rng = 0;
  };

  void maybe_load_env() {
    // One env read per process; a programmatic load_schedule beats it.
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (env_checked_) return;
      env_checked_ = true;
    }
    const char* path = std::getenv("XR_FAULT_SCHEDULE");
    if (!path || !*path) return;
    // A broken schedule file must fail the run loudly — silently running
    // fault-free would green a chaos gate that injected nothing.
    install(FaultSchedule::from_json(Json::parse(core::read_text_file(path))));
  }

  obs::Counter& fired_counter(const std::string& point) {
    // One auditable counter per firing point; names are schedule-driven,
    // so the handles cannot be function-local statics. mu_ is held.
    auto it = counters_.find(point);
    if (it == counters_.end())
      it = counters_.emplace(point, obs::Counter("fault." + point + ".fired"))
               .first;
    return it->second;
  }

  std::mutex mu_;
  std::vector<RuleState> rules_;
  std::map<std::string, obs::Counter> counters_;
  bool env_checked_ = false;
  std::atomic<bool> loaded_{false};
};

#endif  // XR_FAULT_DISABLED

}  // namespace

const char* action_name(Action a) noexcept {
  switch (a) {
    case Action::kIoError: return "io_error";
    case Action::kTruncate: return "truncate";
    case Action::kCorrupt: return "corrupt";
    case Action::kDrop: return "drop";
    case Action::kDelay: return "delay";
  }
  return "?";
}

Action action_from_name(const std::string& name) {
  for (Action a : {Action::kIoError, Action::kTruncate, Action::kCorrupt,
                   Action::kDrop, Action::kDelay})
    if (name == action_name(a)) return a;
  throw std::invalid_argument(
      "fault schedule: unknown action '" + name +
      "' (io_error | truncate | corrupt | drop | delay)");
}

Json FaultSchedule::to_json() const {
  Json j = Json::object();
  j.set("schema", kScheduleSchema);
  j.set("seed", std::size_t(seed));
  Json rules_json = Json::array();
  for (const FaultRule& rule : rules) {
    Json r = Json::object();
    r.set("point", rule.point);
    r.set("trigger", trigger_to_json(rule.trigger));
    r.set("action", action_name(rule.action));
    if (rule.action == Action::kDelay) r.set("delay_ms", std::size_t(rule.delay_ms));
    if (rule.max_fires) r.set("max_fires", rule.max_fires);
    rules_json.push_back(std::move(r));
  }
  j.set("rules", std::move(rules_json));
  return j;
}

FaultSchedule FaultSchedule::from_json(const Json& j) {
  FaultSchedule out;
  bool saw_schema = false, saw_rules = false;
  walk_strict(j, "fault schedule", [&](const std::string& key,
                                       const Json& value) {
    if (key == "schema") {
      if (value.as_string() != kScheduleSchema)
        throw std::invalid_argument("fault schedule: unknown schema '" +
                                    value.as_string() + "'");
      saw_schema = true;
    } else if (key == "seed") {
      out.seed = value.as_size();
    } else if (key == "rules") {
      for (const Json& r : value.as_array()) {
        FaultRule rule;
        bool saw_point = false, saw_trigger = false, saw_action = false;
        walk_strict(r, "fault rule", [&](const std::string& rkey,
                                         const Json& rvalue) {
          if (rkey == "point") {
            rule.point = rvalue.as_string();
            saw_point = true;
          } else if (rkey == "trigger") {
            rule.trigger = trigger_from_json(rvalue);
            saw_trigger = true;
          } else if (rkey == "action") {
            rule.action = action_from_name(rvalue.as_string());
            saw_action = true;
          } else if (rkey == "delay_ms") {
            rule.delay_ms = rvalue.as_size();
          } else if (rkey == "max_fires") {
            rule.max_fires = rvalue.as_size();
          } else {
            return false;
          }
          return true;
        });
        if (!saw_point || rule.point.empty())
          throw std::invalid_argument("fault rule: missing 'point'");
        if (!saw_trigger)
          throw std::invalid_argument("fault rule: missing 'trigger'");
        if (!saw_action)
          throw std::invalid_argument("fault rule: missing 'action'");
        if (rule.action == Action::kDelay && rule.delay_ms == 0)
          throw std::invalid_argument(
              "fault rule: a delay action needs delay_ms >= 1");
        out.rules.push_back(std::move(rule));
      }
      saw_rules = true;
    } else {
      return false;
    }
    return true;
  });
  if (!saw_schema)
    throw std::invalid_argument("fault schedule: missing 'schema'");
  if (!saw_rules) throw std::invalid_argument("fault schedule: missing 'rules'");
  return out;
}

#ifndef XR_FAULT_DISABLED

void load_schedule(const FaultSchedule& schedule) {
  FaultRegistry::get().install(schedule);
}

void clear_schedule() { FaultRegistry::get().clear(); }

bool schedule_loaded() { return FaultRegistry::get().loaded(); }

std::optional<Fired> point(std::string_view name) {
  return FaultRegistry::get().hit(name);
}

#endif

}  // namespace xr::fail

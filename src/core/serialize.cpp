#include "core/serialize.h"

#include <stdexcept>

namespace xr::core {

namespace {

// ---- scenario sub-configs ----------------------------------------------

Json client_to_json(const ClientConfig& c) {
  Json j = Json::object();
  j.set("cpu_ghz", c.cpu_ghz);
  j.set("gpu_ghz", c.gpu_ghz);
  j.set("omega_c", c.omega_c);
  j.set("memory_bandwidth_gbps", c.memory_bandwidth_gbps);
  return j;
}

ClientConfig client_from_json(const Json& j) {
  ClientConfig c;
  c.cpu_ghz = j.at("cpu_ghz").as_double();
  c.gpu_ghz = j.at("gpu_ghz").as_double();
  c.omega_c = j.at("omega_c").as_double();
  c.memory_bandwidth_gbps = j.at("memory_bandwidth_gbps").as_double();
  return c;
}

Json frame_to_json(const FrameConfig& f) {
  Json j = Json::object();
  j.set("fps", f.fps);
  j.set("frame_size", f.frame_size);
  j.set("scene_size", f.scene_size);
  j.set("converted_size", f.converted_size);
  j.set("raw_frame_mb", f.raw_frame_mb);
  j.set("volumetric_mb", f.volumetric_mb);
  j.set("converted_mb", f.converted_mb);
  j.set("inference_result_mb", f.inference_result_mb);
  return j;
}

FrameConfig frame_from_json(const Json& j) {
  FrameConfig f;
  f.fps = j.at("fps").as_double();
  f.frame_size = j.at("frame_size").as_double();
  f.scene_size = j.at("scene_size").as_double();
  f.converted_size = j.at("converted_size").as_double();
  f.raw_frame_mb = j.at("raw_frame_mb").as_double();
  f.volumetric_mb = j.at("volumetric_mb").as_double();
  f.converted_mb = j.at("converted_mb").as_double();
  f.inference_result_mb = j.at("inference_result_mb").as_double();
  return f;
}

Json sensor_to_json(const SensorConfig& s) {
  Json j = Json::object();
  j.set("name", s.name);
  j.set("generation_hz", s.generation_hz);
  j.set("distance_m", s.distance_m);
  return j;
}

SensorConfig sensor_from_json(const Json& j) {
  SensorConfig s;
  s.name = j.at("name").as_string();
  s.generation_hz = j.at("generation_hz").as_double();
  s.distance_m = j.at("distance_m").as_double();
  return s;
}

Json buffer_to_json(const BufferConfig& b) {
  Json j = Json::object();
  j.set("service_rate_per_ms", b.service_rate_per_ms);
  j.set("frame_arrival_per_ms", b.frame_arrival_per_ms);
  j.set("volumetric_arrival_per_ms", b.volumetric_arrival_per_ms);
  j.set("external_arrival_per_ms", b.external_arrival_per_ms);
  return j;
}

BufferConfig buffer_from_json(const Json& j) {
  BufferConfig b;
  b.service_rate_per_ms = j.at("service_rate_per_ms").as_double();
  b.frame_arrival_per_ms = j.at("frame_arrival_per_ms").as_double();
  b.volumetric_arrival_per_ms = j.at("volumetric_arrival_per_ms").as_double();
  b.external_arrival_per_ms = j.at("external_arrival_per_ms").as_double();
  return b;
}

Json network_to_json(const NetworkConfig& n) {
  Json j = Json::object();
  j.set("throughput_mbps", n.throughput_mbps);
  j.set("edge_distance_m", n.edge_distance_m);
  j.set("coop_distance_m", n.coop_distance_m);
  j.set("coop_payload_mb", n.coop_payload_mb);
  return j;
}

NetworkConfig network_from_json(const Json& j) {
  NetworkConfig n;
  n.throughput_mbps = j.at("throughput_mbps").as_double();
  n.edge_distance_m = j.at("edge_distance_m").as_double();
  n.coop_distance_m = j.at("coop_distance_m").as_double();
  n.coop_payload_mb = j.at("coop_payload_mb").as_double();
  return n;
}

Json edge_to_json(const EdgeConfig& e) {
  Json j = Json::object();
  j.set("name", e.name);
  j.set("resource", e.resource);
  j.set("memory_bandwidth_gbps", e.memory_bandwidth_gbps);
  j.set("cnn_name", e.cnn_name);
  j.set("omega_edge", e.omega_edge);
  return j;
}

EdgeConfig edge_from_json(const Json& j) {
  EdgeConfig e;
  e.name = j.at("name").as_string();
  e.resource = j.at("resource").as_double();
  e.memory_bandwidth_gbps = j.at("memory_bandwidth_gbps").as_double();
  e.cnn_name = j.at("cnn_name").as_string();
  e.omega_edge = j.at("omega_edge").as_double();
  return e;
}

Json inference_to_json(const InferenceConfig& i) {
  Json j = Json::object();
  j.set("placement", placement_name(i.placement));
  j.set("local_cnn_name", i.local_cnn_name);
  j.set("omega_client", i.omega_client);
  Json edges = Json::array();
  for (const auto& e : i.edges) edges.push_back(edge_to_json(e));
  j.set("edges", std::move(edges));
  j.set("encoded_size", i.encoded_size);
  return j;
}

InferenceConfig inference_from_json(const Json& j) {
  InferenceConfig i;
  i.placement = placement_from_name(j.at("placement").as_string());
  i.local_cnn_name = j.at("local_cnn_name").as_string();
  i.omega_client = j.at("omega_client").as_double();
  i.edges.clear();
  for (const Json& e : j.at("edges").as_array())
    i.edges.push_back(edge_from_json(e));
  i.encoded_size = j.at("encoded_size").as_double();
  return i;
}

Json handoff_to_json(const wireless::HandoffLatencyConfig& h) {
  Json j = Json::object();
  j.set("l2_scan_ms", h.l2_scan_ms);
  j.set("l2_auth_assoc_ms", h.l2_auth_assoc_ms);
  j.set("l3_registration_ms", h.l3_registration_ms);
  j.set("interface_activation_ms", h.interface_activation_ms);
  j.set("vertical_auth_ms", h.vertical_auth_ms);
  j.set("vertical_l3_ms", h.vertical_l3_ms);
  j.set("service_migration_ms", h.service_migration_ms);
  return j;
}

wireless::HandoffLatencyConfig handoff_from_json(const Json& j) {
  wireless::HandoffLatencyConfig h;
  h.l2_scan_ms = j.at("l2_scan_ms").as_double();
  h.l2_auth_assoc_ms = j.at("l2_auth_assoc_ms").as_double();
  h.l3_registration_ms = j.at("l3_registration_ms").as_double();
  h.interface_activation_ms = j.at("interface_activation_ms").as_double();
  h.vertical_auth_ms = j.at("vertical_auth_ms").as_double();
  h.vertical_l3_ms = j.at("vertical_l3_ms").as_double();
  h.service_migration_ms = j.at("service_migration_ms").as_double();
  return h;
}

Json mobility_to_json(const MobilityConfig& m) {
  Json j = Json::object();
  j.set("enabled", m.enabled);
  j.set("zone_radius_m", m.zone_radius_m);
  j.set("step_length_per_frame_m", m.step_length_per_frame_m);
  j.set("vertical_fraction", m.vertical_fraction);
  j.set("handoff", handoff_to_json(m.handoff));
  return j;
}

MobilityConfig mobility_from_json(const Json& j) {
  MobilityConfig m;
  m.enabled = j.at("enabled").as_bool();
  m.zone_radius_m = j.at("zone_radius_m").as_double();
  m.step_length_per_frame_m = j.at("step_length_per_frame_m").as_double();
  m.vertical_fraction = j.at("vertical_fraction").as_double();
  m.handoff = handoff_from_json(j.at("handoff"));
  return m;
}

Json cooperation_to_json(const CooperationConfig& c) {
  Json j = Json::object();
  j.set("active", c.active);
  j.set("include_in_total", c.include_in_total);
  return j;
}

CooperationConfig cooperation_from_json(const Json& j) {
  CooperationConfig c;
  c.active = j.at("active").as_bool();
  c.include_in_total = j.at("include_in_total").as_bool();
  return c;
}

Json aoi_to_json(const AoiConfig& a) {
  Json j = Json::object();
  j.set("request_period_ms", a.request_period_ms);
  j.set("updates_per_frame", a.updates_per_frame);
  return j;
}

AoiConfig aoi_from_json(const Json& j) {
  AoiConfig a;
  a.request_period_ms = j.at("request_period_ms").as_double();
  a.updates_per_frame = int(j.at("updates_per_frame").as_size());
  return a;
}

}  // namespace

Json to_json(const ScenarioConfig& s) {
  Json j = Json::object();
  j.set("client", client_to_json(s.client));
  j.set("frame", frame_to_json(s.frame));
  Json sensors = Json::array();
  for (const auto& sensor : s.sensors)
    sensors.push_back(sensor_to_json(sensor));
  j.set("sensors", std::move(sensors));
  j.set("buffer", buffer_to_json(s.buffer));
  j.set("network", network_to_json(s.network));
  j.set("inference", inference_to_json(s.inference));
  j.set("codec", to_json(s.codec));
  j.set("mobility", mobility_to_json(s.mobility));
  j.set("cooperation", cooperation_to_json(s.cooperation));
  j.set("aoi", aoi_to_json(s.aoi));
  j.set("updates_per_frame", std::size_t(s.updates_per_frame));
  return j;
}

ScenarioConfig scenario_from_json(const Json& j) {
  ScenarioConfig s;
  s.client = client_from_json(j.at("client"));
  s.frame = frame_from_json(j.at("frame"));
  s.sensors.clear();
  for (const Json& sensor : j.at("sensors").as_array())
    s.sensors.push_back(sensor_from_json(sensor));
  s.buffer = buffer_from_json(j.at("buffer"));
  s.network = network_from_json(j.at("network"));
  s.inference = inference_from_json(j.at("inference"));
  s.codec = h264_from_json(j.at("codec"));
  s.mobility = mobility_from_json(j.at("mobility"));
  s.cooperation = cooperation_from_json(j.at("cooperation"));
  s.aoi = aoi_from_json(j.at("aoi"));
  s.updates_per_frame = int(j.at("updates_per_frame").as_size());
  return s;
}

// ---- performance report breakdowns -------------------------------------

namespace {

Json to_json(const LatencyBreakdown& l) {
  Json j = Json::object();
  j.set("frame_generation", l.frame_generation);
  j.set("volumetric", l.volumetric);
  j.set("external_sensors", l.external_sensors);
  j.set("rendering", l.rendering);
  j.set("buffer_wait", l.buffer_wait);
  j.set("frame_conversion", l.frame_conversion);
  j.set("encoding", l.encoding);
  j.set("local_inference", l.local_inference);
  j.set("remote_inference", l.remote_inference);
  j.set("transmission", l.transmission);
  j.set("handoff", l.handoff);
  j.set("cooperation", l.cooperation);
  j.set("cooperation_in_total", l.cooperation_in_total);
  j.set("total", l.total);
  return j;
}

LatencyBreakdown latency_breakdown_from_json(const Json& j) {
  LatencyBreakdown l;
  l.frame_generation = j.at("frame_generation").as_double();
  l.volumetric = j.at("volumetric").as_double();
  l.external_sensors = j.at("external_sensors").as_double();
  l.rendering = j.at("rendering").as_double();
  l.buffer_wait = j.at("buffer_wait").as_double();
  l.frame_conversion = j.at("frame_conversion").as_double();
  l.encoding = j.at("encoding").as_double();
  l.local_inference = j.at("local_inference").as_double();
  l.remote_inference = j.at("remote_inference").as_double();
  l.transmission = j.at("transmission").as_double();
  l.handoff = j.at("handoff").as_double();
  l.cooperation = j.at("cooperation").as_double();
  l.cooperation_in_total = j.at("cooperation_in_total").as_bool();
  l.total = j.at("total").as_double();
  return l;
}

Json to_json(const EnergyBreakdown& e) {
  Json j = Json::object();
  j.set("frame_generation", e.frame_generation);
  j.set("volumetric", e.volumetric);
  j.set("external_sensors", e.external_sensors);
  j.set("rendering", e.rendering);
  j.set("frame_conversion", e.frame_conversion);
  j.set("encoding", e.encoding);
  j.set("local_inference", e.local_inference);
  j.set("remote_inference", e.remote_inference);
  j.set("transmission", e.transmission);
  j.set("handoff", e.handoff);
  j.set("cooperation", e.cooperation);
  j.set("cooperation_in_total", e.cooperation_in_total);
  j.set("thermal", e.thermal);
  j.set("base", e.base);
  j.set("total", e.total);
  return j;
}

EnergyBreakdown energy_breakdown_from_json(const Json& j) {
  EnergyBreakdown e;
  e.frame_generation = j.at("frame_generation").as_double();
  e.volumetric = j.at("volumetric").as_double();
  e.external_sensors = j.at("external_sensors").as_double();
  e.rendering = j.at("rendering").as_double();
  e.frame_conversion = j.at("frame_conversion").as_double();
  e.encoding = j.at("encoding").as_double();
  e.local_inference = j.at("local_inference").as_double();
  e.remote_inference = j.at("remote_inference").as_double();
  e.transmission = j.at("transmission").as_double();
  e.handoff = j.at("handoff").as_double();
  e.cooperation = j.at("cooperation").as_double();
  e.cooperation_in_total = j.at("cooperation_in_total").as_bool();
  e.thermal = j.at("thermal").as_double();
  e.base = j.at("base").as_double();
  e.total = j.at("total").as_double();
  return e;
}

Json to_json(const std::vector<SensorReport>& sensors) {
  Json arr = Json::array();
  for (const auto& s : sensors) {
    Json sj = Json::object();
    sj.set("name", s.name);
    sj.set("average_aoi_ms", s.average_aoi_ms);
    sj.set("processed_hz", s.processed_hz);
    sj.set("roi", s.roi);
    sj.set("fresh", s.fresh);
    arr.push_back(std::move(sj));
  }
  return arr;
}

std::vector<SensorReport> sensors_from_json(const Json& j) {
  std::vector<SensorReport> out;
  for (const Json& sj : j.as_array()) {
    SensorReport s;
    s.name = sj.at("name").as_string();
    s.average_aoi_ms = sj.at("average_aoi_ms").as_double();
    s.processed_hz = sj.at("processed_hz").as_double();
    s.roi = sj.at("roi").as_double();
    s.fresh = sj.at("fresh").as_bool();
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

Json to_json(const PerformanceReport& report) {
  Json j = Json::object();
  j.set("latency", to_json(report.latency));
  j.set("energy", to_json(report.energy));
  j.set("sensors", to_json(report.sensors));
  return j;
}

PerformanceReport report_from_json(const Json& j) {
  PerformanceReport report;
  report.latency = latency_breakdown_from_json(j.at("latency"));
  report.energy = energy_breakdown_from_json(j.at("energy"));
  report.sensors = sensors_from_json(j.at("sensors"));
  return report;
}

Json to_json(const devices::H264Config& codec) {
  Json j = Json::object();
  j.set("i_frame_interval", codec.i_frame_interval);
  j.set("b_frame_interval", codec.b_frame_interval);
  j.set("bitrate_mbps", codec.bitrate_mbps);
  j.set("fps", codec.fps);
  j.set("quantization", codec.quantization);
  return j;
}

devices::H264Config h264_from_json(const Json& j) {
  devices::H264Config c;
  c.i_frame_interval = j.at("i_frame_interval").as_double();
  c.b_frame_interval = j.at("b_frame_interval").as_double();
  c.bitrate_mbps = j.at("bitrate_mbps").as_double();
  c.fps = j.at("fps").as_double();
  c.quantization = j.at("quantization").as_double();
  return c;
}

}  // namespace xr::core

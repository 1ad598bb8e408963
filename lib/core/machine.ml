open Osiris_sim
module Tc = Osiris_bus.Turbochannel
module Cache = Osiris_cache.Data_cache

type driver_costs = {
  tx_per_pdu : Time.t;
  tx_per_buffer : Time.t;
  rx_per_pdu : Time.t;
  rx_per_buffer : Time.t;
  rx_per_kb : Time.t;
  sched_latency : Time.t;
  syscall : Time.t;
}

type t = {
  name : string;
  cpu_hz : int;
  page_size : int;
  mem_size : int;
  bus : Tc.topology;
  cache : Cache.config;
  interrupt_cost : Time.t;
  wiring : Osiris_os.Wiring.costs;
  wiring_policy : Osiris_os.Wiring.policy;
  proto_costs : Osiris_proto.Ctx.costs;
  driver_costs : driver_costs;
  mem_traffic_fraction : float;
  rx_buffer_size : int;
  rx_pool_buffers : int;
}

let ds5000_200 =
  let cpu_hz = 25_000_000 in
  {
    name = "DEC 5000/200";
    cpu_hz;
    page_size = 4096;
    mem_size = 64 * 1024 * 1024;
    bus = Tc.Shared_bus;
    cache =
      {
        Cache.size = 64 * 1024;
        line_size = 16;
        coherence = Cache.Software;
        cpu_hz;
        fill_overhead_cycles = 13;
      };
    (* Raw CPU occupancy; the memory-traffic fraction below stretches
       every executed slice by ~1.5x on this shared-bus machine, so the
       effective interrupt cost is the paper's 75 us. *)
    interrupt_cost = Time.us 50;
    wiring = {
      Osiris_os.Wiring.mach_fixed = Time.us 55;
      mach_per_page = Time.us 30;
      low_fixed = Time.us 3;
      low_per_page = Time.us 2;
    };
    wiring_policy = Osiris_os.Wiring.Low_level;
    proto_costs =
      {
        Osiris_proto.Ctx.ip_output_per_fragment = Time.us 17;
        ip_input_per_fragment = Time.us 28;
        udp_output = Time.us 23;
        udp_input = Time.us 12;
        checksum_cycles_per_word = 1;
      };
    driver_costs =
      {
        tx_per_pdu = Time.us 13;
        tx_per_buffer = Time.us 3;
        rx_per_pdu = Time.us 20;
        rx_per_buffer = Time.us 7;
        rx_per_kb = Time.us 2;
        sched_latency = Time.us 7;
        syscall = Time.us 20;
      };
    mem_traffic_fraction = 0.5;
    rx_buffer_size = 16 * 1024;
    rx_pool_buffers = 63;
  }

let dec3000_600 =
  let cpu_hz = 175_000_000 in
  {
    name = "DEC 3000/600";
    cpu_hz;
    page_size = 8192;
    mem_size = 128 * 1024 * 1024;
    bus = Tc.Crossbar;
    cache =
      {
        Cache.size = 2 * 1024 * 1024;
        line_size = 32;
        coherence = Cache.Hardware_update;
        cpu_hz;
        fill_overhead_cycles = 2;
      };
    interrupt_cost = Time.us 25;
    wiring = {
      Osiris_os.Wiring.mach_fixed = Time.us 35;
      mach_per_page = Time.us 20;
      low_fixed = Time.us 2;
      low_per_page = Time.ns 1500;
    };
    wiring_policy = Osiris_os.Wiring.Low_level;
    proto_costs =
      {
        Osiris_proto.Ctx.ip_output_per_fragment = Time.us 16;
        ip_input_per_fragment = Time.us 30;
        udp_output = Time.us 21;
        udp_input = Time.us 14;
        checksum_cycles_per_word = 1;
      };
    driver_costs =
      {
        tx_per_pdu = Time.us 9;
        tx_per_buffer = Time.us 2;
        rx_per_pdu = Time.us 13;
        rx_per_buffer = Time.us 4;
        rx_per_kb = Time.us 9;
        sched_latency = Time.us 4;
        syscall = Time.us 12;
      };
    mem_traffic_fraction = 0.0;
    rx_buffer_size = 16 * 1024;
    rx_pool_buffers = 63;
  }

(** §3.2 / §4 ablation: application device channels.

    The paper's headline OS result: user-to-user latency over an ADC is
    within the error margins of kernel-to-kernel latency, because the
    data and control path to the adaptor crosses no protection boundary.
    Three configurations are compared:

    - kernel-to-kernel: test programs linked into the kernel (Table 1's
      setup);
    - user-to-user via ADC: each application owns a queue-page pair and
      runs its own channel driver;
    - user-to-user via the kernel driver: every send pays the kernel
      crossing, and every receive an extra (uncached-fbuf-style) domain
      transfer — the traditional path ADCs remove.

    The protection test queues a descriptor naming unauthorized pages and
    checks the board raises a violation instead of transmitting. *)

val rtt_kernel : msg_size:int -> float
val rtt_adc : msg_size:int -> float
val rtt_user_via_kernel : msg_size:int -> float

val table : unit -> Report.table

(** SRAM-based reconfigurable LUTs — the prior-work baseline [8] the paper
    positions itself against (Section II).

    Functionally interchangeable with the STT LUTs, but: volatile (the
    configuration must be reloaded from an external non-volatile memory on
    every power-up, which re-exposes the bitstream the whole scheme is
    supposed to hide), leakier (6T cells vs near-zero MTJ standby), and
    bulkier per bit, while switching faster (no sense-amplifier read
    path). *)

val lut : int -> Cell.t
(** SRAM LUT cell of a given fan-in (1..6). *)

val bitstream_exposed : bool
(** [true]: an attacker who probes the external configuration memory or
    the power-up bus reads the secret directly — the paper's core
    criticism of SRAM-based obfuscation. *)

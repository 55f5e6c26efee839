; Minimized from generated-corpus seed 612 (1000-seed differential sweep).
;
; One block of two warps, each updating only its own 256-byte LDS share.
; Warp 0 finishes after one trip; warp 1 loops on. A signal that lands
; after warp 0 is Done re-partitions the block's LDS save coverage so
; warp 1, the only victim, covers the whole 512-byte block (the orphaned
; Done share would otherwise be lost to the all-saved poison). CKPT and
; SM-flushing save LDS at a hook, before the signal, at the warp's
; launch-time width; their resume must restore that save into the range
; it was taken from, not fault on the widened coverage.
.kernel reg-ckpt-lds-orphan-share
.vregs 3
.sregs 8
.lds 512
  s_shr s5, s4, 9
  s_and s5, s5, 1             ; warp index in the block (tile-base parity)
  s_shl s6, s5, 8             ; own LDS share base: 256 bytes per warp
  s_mul s7, s5, 24
  s_add s7, s7, 1             ; trips: 1 for warp 0, 25 for warp 1
  v_laneid v0
  v_shl v0, v0, 2 !noovf
  v_add v0, v0, s6 !noovf     ; lane word in the own share
loop:
  v_lload v1, v0, 0
  v_add v1, v1, 3
  v_lstore v0, v1, 0
  s_sub s7, s7, 1
  s_cmp_gt s7, 0
  s_cbranch_scc1 loop
  v_lload v2, v0, 0
  v_laneid v1
  v_shl v1, v1, 2 !noovf
  v_add v1, v1, s4 !noovf
  v_gstore v1, v2, 0
  s_endpgm

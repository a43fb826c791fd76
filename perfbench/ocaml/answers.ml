(* Known answers, recorded with [main.exe --record] from the program
   at the commit that last changed protect output on purpose: LUT
   count and digest of foundry view plus bitstream per protect job,
   and (findings, errors) of the SEM pack per lint-sem job. *)

let hybrids =
  [
    ("s641/independent", (5, "ceddf0687e467116ebb029462dab8c2c"));
    ("s641/dependent", (21, "b0bd7203c827c54beab50c6d8d65ec93"));
    ("s641/parametric", (9, "078272b1373dfcd0f39d6c0fe7d422d9"));
    ("s820/independent", (5, "f88d0c7bf3ebd92ce2375d4b74e19f51"));
    ("s820/dependent", (19, "0d807e73b43222280168d1b256fff6d6"));
    ("s820/parametric", (19, "ca034e08cb95241fba8c3208f8aecd31"));
    ("s832/independent", (5, "75b048da7323e80bc05bd4a9e28221b6"));
    ("s832/dependent", (14, "a9f6586a64d7abc4076b89fb6b8e3294"));
    ("s832/parametric", (12, "b72b938d7968548ee559a99302f55545"));
    ("s953/independent", (5, "3008c9cb058bf4bd69c7fe76be65fe7f"));
    ("s953/dependent", (16, "75c7161e9cbe123b49e07b93a35e2ffa"));
    ("s953/parametric", (8, "e8b36f9280f2d86627e1b9144106fbd1"));
    ("s1196/independent", (5, "41e39e7ca4315ec78eea001fb2d95575"));
    ("s1196/dependent", (27, "79ca3e33bcc11df087d39e67359c438c"));
    ("s1196/parametric", (16, "e7b46f81491bd22fec13dce7b2efd491"));
    ("s1238/independent", (5, "b056418eea0eb30921dc53c298f23f79"));
    ("s1238/dependent", (28, "90d3a28051c6907a730bb6b5b2deb44a"));
    ("s1238/parametric", (10, "ea9cac7daac0a0b6440ad7bc795213bf"));
    ("s1488/independent", (5, "a33a9e9afd0721b0ecbf14b0943cef3d"));
    ("s1488/dependent", (17, "fa43eb19f45aff4ebdf055c4e24bf48a"));
    ("s1488/parametric", (17, "6afb68a26a8fa2183052f40085ea7a6d"));
    ("s5378a/independent", (5, "31ee066f00608d870642b5b6d4c51028"));
    ("s5378a/dependent", (77, "087087262d4538ccc6203bc483d38804"));
    ("s5378a/parametric", (43, "960e9405f3f8dd4c1151f6e4e583580d"));
    ("slike-2500/parametric", (9, "0590650be95723705a15cb898837ccc1"));
    ("wide-2500/parametric", (5, "a7dadc03c270894fce755aaa55364690"));
    ("fanout-2500/parametric", (25, "16379bdbed0b9b387b142d03506bf4b7"));
    ("deep-1500/parametric", (43, "d6d4a01c9d983a25996e983c7c3cf2af"));
    ("s27/dependent", (7, "719f8e447999ebae0438e43a511ed40e"));
    ("slike-200/independent", (5, "ff4f4d913d1f28c7c520f185b5008f30"));
    ("deep-600/independent", (5, "b678514d40a02bd555b4e9a6f1d244e5"));
    ("s27/independent", (5, "41690f85ecf10501bae7f40bde98c77f"));
    ("s27/parametric", (1, "a5ae6b975efb5b59c86599bff62e3779"));
    ("c17/independent", (5, "5c1a830b4dce4a9435c43955b29bc810"));
    ("c17/dependent", (2, "4f6a4f04e38dbe4bb48189ed2fbe0e7e"));
    ("c17/parametric", (1, "a6f2baeccb96cb2e3c906ff94df21ec1"));
    ("slike-400/parametric", (8, "2c0a84dbaa76dcbf39a4beb230e0b2fd"));
  ]

let lint =
  [
    ("s820/independent", (28, 0));
    ("s832/independent", (20, 0));
    ("s953/independent", (22, 1));
    ("s1488/independent", (46, 0));
    ("s27/independent", (0, 0));
    ("c17/independent", (0, 0));
  ]

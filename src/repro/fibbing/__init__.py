"""Translation of COYOTE routings into OSPF lies (Section V-D).

Fibbing [8, 9] realizes arbitrary per-destination forwarding DAGs by
injecting fake nodes/links into the link-state database; Németh et
al. [18] approximate unequal splits by giving ECMP repeated virtual
next hops.  This package implements both: ratio apportionment into
bounded integer multiplicities, fake-LSA synthesis, and an end-to-end
controller that installs the lies into :class:`repro.ospf.domain.OspfDomain`
and verifies the realized FIBs.
"""

#include <jailhouse/cell-config.h>

struct {
	struct jailhouse_cell_desc cell;
	__u64 cpus[1];
	struct jailhouse_memory mem_regions[5];
} __attribute__((packed)) config = {
	.cell = {
		.signature = JAILHOUSE_CELL_DESC_SIGNATURE,
		.revision = JAILHOUSE_CONFIG_REVISION,
		.name = "vm \"wide\"\\\t\x01é<&>\xff",
		.flags = JAILHOUSE_CELL_PASSIVE_COMMREG,
		.cpu_set_size = sizeof(config.cpus),
		.num_memory_regions = ARRAY_SIZE(config.mem_regions),
	},

	.cpus = {0b1111111111111111111111111111111111111111111111111111111111111111},

	.mem_regions = {
		/* RAM */ {
			.phys_start = 0xffffffffffffffff,
			.virt_start = 0xffffffffffffffff,
			.size = 0xffffffffffffffff,
			.flags = JAILHOUSE_MEM_READ | JAILHOUSE_MEM_WRITE | JAILHOUSE_MEM_EXECUTE,
		},
		/* RAM */ {
			.phys_start = 0x0,
			.virt_start = 0x0,
			.size = 0x0,
			.flags = JAILHOUSE_MEM_READ | JAILHOUSE_MEM_WRITE | JAILHOUSE_MEM_EXECUTE,
		},
		/* device */ {
			.phys_start = 0xffffffffffffffff,
			.virt_start = 0xffffffffffffffff,
			.size = 0xffffffffffffffff,
			.flags = JAILHOUSE_MEM_READ | JAILHOUSE_MEM_WRITE | JAILHOUSE_MEM_IO,
		},
		/* ipc shmem -9223372036854775808 */ {
			.phys_start = 0xffffffffffffffff,
			.virt_start = 0xffffffffffffffff,
			.size = 0xffffffffffffffff,
			.flags = JAILHOUSE_MEM_READ | JAILHOUSE_MEM_WRITE | JAILHOUSE_MEM_ROOTSHARED,
		},
		/* ipc shmem 9223372036854775807 */ {
			.phys_start = 0xffffffffffffffff,
			.virt_start = 0xffffffffffffffff,
			.size = 0xffffffffffffffff,
			.flags = JAILHOUSE_MEM_READ | JAILHOUSE_MEM_WRITE | JAILHOUSE_MEM_ROOTSHARED,
		},
	},
};
